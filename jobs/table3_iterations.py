"""Job for Table III (effect of the iteration count T). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, emit, session

from repro.eval.tables import table3_iterations


def main() -> None:
    p = base_parser("Table III: relative size vs T", "--scale", "--datasets")
    p.add_argument("--Ts", nargs="*", type=int, default=[1, 5, 10, 20, 40])
    args = p.parse_args()
    df = table3_iterations(
        scale=args.scale, names=args.datasets, Ts=tuple(args.Ts),
        seed=args.seed, engine=args.engine, spark=session("table3", args.engine),
    )
    emit(df.pivot(index="dataset", columns="T", values="relative_size").reset_index())


if __name__ == "__main__":
    main()
