"""Job for Fig. 1(b) (linear scalability). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, emit, session

from repro.eval.tables import scalability


def main() -> None:
    p = base_parser("Fig 1(b): runtime vs |E|")
    p.add_argument("--base-n", type=int, default=4000)
    args = p.parse_args()
    df = scalability(
        base_n=args.base_n, T=5, seed=args.seed, engine=args.engine,
        spark=session("scalability", args.engine),
    )
    emit(
        df,
        f"linear fit: slope={df.attrs['slope_s_per_edge']:.2e} s/edge, "
        f"R^2={df.attrs['r2_linear']:.3f}",
    )


if __name__ == "__main__":
    main()
