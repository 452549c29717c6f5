"""Job for Table IV (pruning substep effectiveness). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, emit, session

from repro.eval.tables import table4_pruning


def main() -> None:
    args = base_parser("Table IV: metrics after each pruning substep",
                       "--scale", "--T", "--datasets").parse_args()
    df = table4_pruning(
        scale=args.scale, names=args.datasets, T=args.T, seed=args.seed,
        engine=args.engine, spark=session("table4", args.engine),
    )
    emit(df)


if __name__ == "__main__":
    main()
