"""Job for Fig. 5 (compactness + runtime vs baselines). Runs in-process;
``--engine spark`` starts a Spark session. RANDOMIZED and MOSSO cells are
OOT ("—") when the run goes over the method's fixed work budget, so the
table depends only on the inputs and the seed, not on the host."""
from _common import base_parser, emit, session

from repro.eval.tables import fig5_compactness


def main() -> None:
    p = base_parser("Fig 5: relative size & runtime for all 5 methods",
                    "--scale", "--T", "--datasets")
    args = p.parse_args()
    df = fig5_compactness(
        scale=args.scale, names=args.datasets, T=args.T, seed=args.seed,
        engine=args.engine, spark=session("fig5", args.engine),
    )
    emit(df)


if __name__ == "__main__":
    main()
