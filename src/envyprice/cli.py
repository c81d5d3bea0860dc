"""Command-line front end.

All machine-readable numbers are exact fractions rendered as "p/q"; floats
appear only behind --approx and are marked approximate. Exit codes: 0 on
success, 1 when a verification fails, 2 on usage or input errors.
"""

from __future__ import annotations

import json
import sys

import click

from .bounds import bound_report, explore_witness
from .core import format_rational, price_ratio, read_instance
from .oracle import RejectionCapExceeded, fuzz_instances, oracle_p_nn
from .solver import (
    KNOWN_RATIOS,
    Search,
    SolveOptions,
    solve_p_nn,
    witness_to_dict,
    write_witness,
)


class _InputErrorsExit2(click.Group):
    """Reports a command's input or file error on stderr with exit 2.

    A broken stdout pipe is not one: it goes on to click, which exits 1.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (OSError, ValueError, RejectionCapExceeded) as err:
            click.echo(str(err), err=True)
            sys.exit(2)


@click.group(cls=_InputErrorsExit2)
def main() -> None:
    """Exact price-of-envy-freeness computations for n agents, n items."""


@main.command()
@click.option("--n", "n", type=int, required=True, help="Number of agents.")
@click.option(
    "--search",
    type=click.Choice(["lemma4", "full"]),
    default="lemma4",
    show_default=True,
)
@click.option("--approx", is_flag=True, help="Append an approximate float.")
def nn(n: int, search: str, approx: bool) -> None:
    """Print the exact worst-case ratio for n agents and n items."""
    witness = solve_p_nn(n, SolveOptions(Search(search)))
    line = format_rational(witness.ratio)
    if approx:
        line += f" (approx {float(witness.ratio):.6f})"
    click.echo(line)


@main.command()
@click.option("--from", "lo", type=int, default=1, show_default=True)
@click.option("--to", "hi", type=int, required=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False, allow_dash=True), default="-")
@click.option("--approx", is_flag=True, help="Add an approximate float column.")
def table(lo: int, hi: int, fmt: str, out: str, approx: bool) -> None:
    """Tabulate exact ratios for a range of n."""
    if lo < 1 or hi < lo:
        raise click.UsageError("need 1 <= --from <= --to")
    with click.open_file(out, "w") as fh:
        if fmt == "json":  # the payload itself grows as the square of --to
            fh.write(json.dumps([witness_to_dict(solve_p_nn(n)) for n in range(lo, hi + 1)], indent=2))
            fh.write("\n")
        else:
            header = "n,p_num,p_den"
            if approx:
                header += ",p_approx"
            fh.write(header + "\n")
            for n in range(lo, hi + 1):  # a row keeps only the ratio, not the length-n witness
                ratio = solve_p_nn(n).ratio
                row = f"{n},{ratio.numerator},{ratio.denominator}"
                if approx:
                    row += f",{float(ratio):.6f}"
                fh.write(row + "\n")


@main.command()
@click.option("--n", "n", type=int, required=True)
def verify(n: int) -> None:
    """Cross-check the solver against the oracle and the reference table."""
    witness = solve_p_nn(n)
    oracle_value, _ = oracle_p_nn(n)
    parts = [
        f"solver={format_rational(witness.ratio)}",
        f"oracle={format_rational(oracle_value)}",
    ]
    reference = KNOWN_RATIOS.get(n)
    if reference is not None:
        parts.append(f"reference={format_rational(reference)}")
    click.echo(" ".join(parts))
    if witness.ratio != oracle_value or (
        reference is not None and witness.ratio != reference
    ):
        click.echo("MISMATCH", err=True)
        sys.exit(1)


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def witness(n: int, out: str) -> None:
    """Write the maximizing (s, r) witness for n to a JSON file."""
    w = solve_p_nn(n)
    write_witness(w, out)
    click.echo(format_rational(w.ratio))


@main.command()
@click.argument("path", type=click.Path(allow_dash=False))
def check(path: str) -> None:
    """Validate an instance file and print its welfare report."""
    report = price_ratio(read_instance(path))
    fair = (
        "none"
        if report.envy_free_optimal is None
        else format_rational(report.envy_free_optimal)
    )
    ratio = "none" if report.ratio is None else format_rational(report.ratio)
    click.echo(
        f"optimal={format_rational(report.optimal)} envy_free={fair} ratio={ratio}"
    )


def _report_payload(n: int) -> dict:
    # a solve at n = 1000 takes about 0.5 ms on a 2-core x86 box
    p_exact = solve_p_nn(n).ratio if n <= 1000 else None
    report = bound_report(n, p_exact)
    return {
        "n": report.n,
        "lower_construction_ratio": format_rational(report.lower_construction_ratio),
        "upper_g_max": format_rational(report.upper_g_max),
        "p_exact": None if report.p_exact is None else format_rational(report.p_exact),
        "checks": {name: ok for name, ok in report.checks},
    }


@main.command()
@click.option("--n", "n", type=int, default=None)
@click.option("--to", "hi", type=int, default=None)
def bounds(n: int | None, hi: int | None) -> None:
    """Bound report for one n (JSON) or rows for 1..B (CSV)."""
    if (n is None) == (hi is None):
        raise click.UsageError("provide exactly one of --n or --to")
    if n is not None:
        if n < 1:
            raise click.UsageError("need --n >= 1")
        click.echo(json.dumps(_report_payload(n), indent=2))
        return
    if hi < 1:
        raise click.UsageError("need --to >= 1")
    click.echo("n,lower,upper,p,holds")
    for k in range(1, hi + 1):
        payload = _report_payload(k)
        p = payload["p_exact"] or ""
        holds = "true" if all(payload["checks"].values()) else "false"
        click.echo(
            f"{k},{payload['lower_construction_ratio']},"
            f"{payload['upper_g_max']},{p},{holds}"
        )


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--m", "m", type=int, required=True)
@click.option("--budget", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def explore(n: int, m: int, budget: int, seed: int) -> None:
    """Search for high-ratio instances with m >= n items (heuristic)."""
    value, _ = explore_witness(n, m, budget, seed)
    click.echo(f"heuristic lower bound: {format_rational(value)}")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--count", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def fuzz(n: int, count: int, seed: int) -> None:
    """Fuzz random instances against the exact bound; CSV on stdout."""
    bound = solve_p_nn(n).ratio
    click.echo("instance_id,ratio_num,ratio_den,bound_holds")
    violations = 0
    for idx, x in enumerate(fuzz_instances(n, count, seed)):
        ratio = price_ratio(x).ratio
        holds = ratio <= bound
        violations += not holds
        flag = "true" if holds else "false"
        click.echo(f"{idx},{ratio.numerator},{ratio.denominator},{flag}")
    if violations:
        sys.exit(1)


if __name__ == "__main__":
    main()
