"""Job for Fig. 5 (compactness + runtime vs baselines). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, emit, session

from repro.eval.tables import fig5_compactness


def main() -> None:
    p = base_parser("Fig 5: relative size & runtime for all 5 methods")
    p.add_argument("--time-limit", type=float, default=300.0)
    args = p.parse_args()
    df = fig5_compactness(
        scale=args.scale, names=args.datasets, T=args.T, seed=args.seed,
        engine=args.engine, spark=session("fig5", args.engine),
        time_limit_s=args.time_limit,
    )
    emit(df)


if __name__ == "__main__":
    main()
