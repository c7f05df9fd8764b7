#!/usr/bin/env python3
"""Gate the PDE-solver fast path against the committed baseline.

Usage: check_bench.py CURRENT_JSON BASELINE_JSON

Reads the "solver" section of two bench files (either the full
dlosn-bench/1 harness output or the standalone dlosn-bench-solver/1
document the DLOSN_BENCH_SOLVER_ONLY mode writes) and fails (exit 1)
when the fresh run regresses against bench/baseline.json.

Per-scheme checks ("fast" = Pde.solve, which is a width-1 panel, vs
"ref" = Pde.solve_reference, the per-step-allocating oracle):

- output divergence: every scheme must report identical=true (the
  panel stepper is only allowed to exist while it is bit-identical to
  the reference stepper);
- allocation regression: fast_minor_words_per_solve may not exceed the
  baseline by more than 20% (minor-word counts are deterministic, so
  this is a tight absolute check), and alloc_ratio (reference / fast)
  must stay >= 2 for every scheme.  A baseline entry may set
  "min_alloc_ratio" to override the floor;
- time regression: ns/step is machine-dependent, so the check is
  relative — fast_ns_per_step / ref_ns_per_step, both measured in the
  same run on the same machine, may not exceed the baseline ratio by
  more than 20%.

Panel checks (fused multi-story panel vs a per-story loop of
reference solves — the "scalar" fields — both measured in the same
run):

- every panel entry must report identical=true — the fused solver is
  only allowed to exist while each story's output is bit-identical to
  its reference solve;
- speedup (reference-loop time / panel time per story-step) must stay
  >= 2 for the committed >= 8-story panels ("min_speedup" in the
  baseline entry overrides the floor);
- allocation regression: panel_minor_words_per_story may not exceed
  the baseline by more than 20%.

Fit-resolution check (the solver section's fit_resolution entry: the
Strang solve every Nelder-Mead objective evaluation runs, nx 41,
dt 0.05, t 1 -> 4):

- it must report identical=true against the reference;
- allocation regression: its fast_minor_words_per_solve may not exceed
  the baseline's by more than 20%.  Its solve time is printed but not
  gated.

The panel entries also carry batching_gain (a loop of width-1
Pde.solve calls / the panel), which is printed but not gated.
"""
import json
import sys

TOLERANCE = 1.20
MIN_ALLOC_RATIO = 2.0
MIN_PANEL_SPEEDUP = 2.0

SCHEMAS = ("dlosn-bench/1", "dlosn-bench-solver/1")


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def solver_of(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") not in SCHEMAS:
        fail(f"{path}: unexpected schema {doc.get('schema')!r}")
    solver = doc.get("solver")
    if not solver or not solver.get("schemes"):
        fail(f"{path}: no solver section")
    schemes = {s["name"]: s for s in solver["schemes"]}
    panel = {p["name"]: p for p in solver.get("panel", [])}
    return schemes, panel, solver.get("fit_resolution")


def check_schemes(current, baseline):
    checked = 0
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            fail(f"scheme {name!r} present in baseline but missing from run")

        if cur.get("identical") is not True:
            fail(f"{name}: Pde.solve is not bit-identical to the reference")

        words = cur["fast_minor_words_per_solve"]
        base_words = base["fast_minor_words_per_solve"]
        if words > base_words * TOLERANCE:
            fail(
                f"{name}: allocation regression — "
                f"{words:.0f} minor words/solve vs baseline {base_words:.0f} "
                f"(>{TOLERANCE:.0%})"
            )

        ratio = cur["alloc_ratio"]
        min_ratio = base.get("min_alloc_ratio", MIN_ALLOC_RATIO)
        if ratio < min_ratio:
            fail(
                f"{name}: alloc_ratio {ratio:.2f} below the required "
                f"{min_ratio}x reference-to-fast reduction"
            )

        rel = cur["fast_ns_per_step"] / cur["ref_ns_per_step"]
        base_rel = base["fast_ns_per_step"] / base["ref_ns_per_step"]
        if rel > base_rel * TOLERANCE:
            fail(
                f"{name}: time regression — fast/ref step-time ratio "
                f"{rel:.3f} vs baseline {base_rel:.3f} (>{TOLERANCE:.0%})"
            )
        checked += 1
        print(
            f"check_bench: {name}: identical, {words:.0f} words/solve "
            f"(baseline {base_words:.0f}), alloc x{ratio:.1f}, "
            f"fast/ref time {rel:.3f} (baseline {base_rel:.3f})"
        )

    if checked == 0:
        fail("baseline contained no schemes")
    return checked


def check_panel(current, baseline):
    checked = 0
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            fail(f"panel {name!r} present in baseline but missing from run")

        if cur.get("identical") is not True:
            fail(
                f"panel {name}: fused solve is not bit-identical to the "
                f"per-story reference"
            )

        if cur["stories"] < base["stories"]:
            fail(
                f"panel {name}: run used {cur['stories']} stories, "
                f"baseline gates {base['stories']}"
            )

        speedup = cur["speedup"]
        min_speedup = base.get("min_speedup", MIN_PANEL_SPEEDUP)
        if speedup < min_speedup:
            fail(
                f"panel {name}: speedup {speedup:.2f}x vs the reference loop "
                f"below the required {min_speedup}x"
            )

        words = cur["panel_minor_words_per_story"]
        base_words = base["panel_minor_words_per_story"]
        if words > base_words * TOLERANCE:
            fail(
                f"panel {name}: allocation regression — "
                f"{words:.0f} minor words/story vs baseline {base_words:.0f} "
                f"(>{TOLERANCE:.0%})"
            )
        checked += 1
        print(
            f"check_bench: panel {name}: identical, {cur['stories']} stories, "
            f"{speedup:.2f}x vs reference loop (floor {min_speedup}x), "
            f"{words:.0f} words/story (baseline {base_words:.0f}), "
            f"batching gain {cur.get('batching_gain', float('nan')):.2f}x "
            f"vs width-1 solves (ungated)"
        )
    return checked


def check_fit(cur, base):
    if base is None:
        return
    if cur is None:
        fail("baseline has a fit_resolution entry but the run has none")
    if cur.get("identical") is not True:
        fail("fit_resolution: the fits' solve is not bit-identical to the "
             "reference")
    words = cur["fast_minor_words_per_solve"]
    base_words = base["fast_minor_words_per_solve"]
    if words > base_words * TOLERANCE:
        fail(
            f"fit_resolution: allocation regression — {words:.0f} minor "
            f"words/solve vs baseline {base_words:.0f} (>{TOLERANCE:.0%})"
        )
    print(
        f"check_bench: fit-resolution strang (nx {cur['nx']}, "
        f"dt {cur['dt']}): identical, {words:.0f} words/solve "
        f"(baseline {base_words:.0f}), "
        f"{cur['fast_ns_per_solve'] / 1e3:.1f} us/solve (time ungated)"
    )


def main():
    cur_schemes, cur_panel, cur_fit = solver_of(sys.argv[1])
    base_schemes, base_panel, base_fit = solver_of(sys.argv[2])

    checked = check_schemes(cur_schemes, base_schemes)
    panel_checked = check_panel(cur_panel, base_panel)
    if base_panel and panel_checked == 0:
        fail("baseline contained panel entries but none were checked")
    check_fit(cur_fit, base_fit)
    print(
        f"check_bench: OK — {checked} schemes and {panel_checked} panels "
        f"within tolerance"
    )


if __name__ == "__main__":
    main()
