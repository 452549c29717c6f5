"""Job for Table V (height-bound variant H_b). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, emit, session

from repro.eval.tables import table5_height


def main() -> None:
    p = base_parser("Table V: avg leaf depth & relative size vs H_b",
                    "--scale", "--T", "--datasets")
    p.add_argument("--hbs", nargs="*", type=int, default=[2, 5, 7, 10, 0])
    args = p.parse_args()
    df = table5_height(
        scale=args.scale, names=args.datasets, hbs=tuple(args.hbs),
        T=args.T, seed=args.seed, engine=args.engine,
        spark=session("table5", args.engine),
    )
    emit(df)


if __name__ == "__main__":
    main()
