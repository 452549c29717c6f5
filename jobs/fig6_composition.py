"""Job for Fig. 6 (p/n/h edge composition). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, emit, session

from repro.eval.tables import fig6_composition


def main() -> None:
    args = base_parser("Fig 6: output composition", "--scale", "--T", "--datasets").parse_args()
    df = fig6_composition(
        scale=args.scale, names=args.datasets, T=args.T, seed=args.seed,
        engine=args.engine, spark=session("fig6", args.engine),
    )
    emit(df)


if __name__ == "__main__":
    main()
