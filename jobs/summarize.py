"""Job: summarize one dataset with any method and print the full metric
bundle (the paper's per-dataset headline numbers). Runs in-process;
``--engine spark`` starts a Spark session."""
from _common import base_parser, session

from repro.eval.harness import load_dataset, run_method


def main() -> None:
    p = base_parser("Summarize one dataset with any method", "--scale", "--T")
    p.add_argument("--dataset", default="ppi_like")
    p.add_argument("--method", default="slugger")
    args = p.parse_args()
    spark = session("summarize", args.engine)
    edges, n = load_dataset(args.dataset, args.scale, args.seed)
    rec = run_method(
        args.method, edges, n, seed=args.seed, T=args.T, engine=args.engine, spark=spark
    )
    for k, v in rec.items():
        print(f"{k}: {v}")


if __name__ == "__main__":
    main()
