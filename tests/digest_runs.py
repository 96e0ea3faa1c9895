"""Print one sha256 per artifact of the reference run chain, to compare trees bit for bit.

    PYTHONPATH=src python tests/digest_runs.py [--acceptance] [--set FIELD=VALUE ...]
        [--ident-decimation D] [--out FILE] [--against FILE]

For each of LC1-LC3 it runs the offline tune of blade 3 (seed 100, 600 s,
fault from the first sample) and then ``compare_modes`` on the default
1400 s protocol (baseline, sprc_only and proposed with the tuned bank).
One more LC3 comparison of sprc_only and proposed has no fault, so no
decision: there proposed forks off sprc_only at the last sample.
``--acceptance`` adds the runs of the acceptance suite: A1 (20 healthy
runs), A2 (60 fault runs), A5, A6, A7 (20 warm and 20 cold) and A9.
Every ``compare_modes`` here, the chain's and A6's, forks its proposed run
off an sprc_only trunk at the end of the chunk in which the fuser latches,
or at the end without a decision.  The A7 pairs here still run
independently, as two ``run_simulation`` calls.

``--set FIELD=VALUE`` (repeatable) overrides one ``RunConfig`` field on
every run of the chain, the tunes included; VALUE is read as JSON, and as a
string when it is not JSON.  ``--ident-decimation D`` sets
``harness.IDENT_DECIMATION`` for the whole chain.  So the chain of another
protocol, such as ``--ident-decimation 1 --set past_window=100``
(identification on every sample), can be compared with digests a tree of
that protocol wrote.

Each output line is ``<artifact> <sha256>``: one per series, coefficient
history, tuning snapshot and reduction table, one per report field
(``<tag>/report/<field>``) and one per bank-entry key
(``tune/<lc>/entry/<key>``), so a report field that is dropped or changes
shows as that field alone.  With
``--against FILE`` the lines are compared with an earlier output: each
shared artifact whose digest differs is listed, then one line per
top-level group (``tune``, ``chain``, ``A1``...) counts its shared, equal
and differing artifacts, artifacts present on one side only are counted
per side (a run without ``--acceptance`` against a
file with it misses the acceptance runs, which is not a difference in
bits), and the exit status is 1 on either.  pytest does not collect this
file.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from pitchftc import harness, supervisor

LOAD_CASES = ("LC1", "LC2", "LC3")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array(a) -> str:
    a = np.ascontiguousarray(a)
    return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def _json(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


def digest_result(tag: str, result) -> list[str]:
    lines = [f"{tag}/series/{name} {_array(v)}" for name, v in sorted(result.series.items())]
    lines.append(f"{tag}/coeff_history {_array(result.coeff_history)}")
    for name in ("snapshot_coeffs", "snapshot_markov"):
        value = getattr(result, name)
        if value is not None:
            lines.append(f"{tag}/{name} {_array(value)}")
    lines.extend(digest_fields(f"{tag}/report", result.report.to_dict()))
    return lines


def digest_fields(tag: str, record: dict) -> list[str]:
    """One digest per field, so a dropped or changed field differs alone."""
    return [f"{tag}/{name} {_json(value)}" for name, value in sorted(record.items())]


def tune(lc: str, out: list[str], config=harness.RunConfig) -> supervisor.PretunedBank:
    cfg = config(
        mode="offline_tune", load_case=lc, seed=100, duration_s=600.0,
        fault_blade=3, fault_time_s=0.0,
    )
    entry, report = supervisor.offline_tune(cfg)
    out.extend(digest_fields(f"tune/{lc}/entry", asdict(entry)))
    out.extend(digest_fields(f"tune/{lc}/report", report.to_dict()))
    return supervisor.PretunedBank({3: entry})


def compare(tag: str, cfg, bank, modes, out: list[str]) -> None:
    outcome = harness.compare_modes(cfg, bank=bank, modes=modes)
    for mode, result in outcome["results"].items():
        out.extend(digest_result(f"{tag}/{mode}", result))
    out.append(f"{tag}/reduction {_json(outcome['reduction'])}")


def run(tag: str, cfg, out: list[str], bank=None) -> None:
    out.extend(digest_result(tag, harness.run_simulation(cfg, bank=bank)))


def chain(banks: dict, out: list[str], config=harness.RunConfig) -> None:
    for lc in LOAD_CASES:
        compare(f"chain/{lc}", config(load_case=lc), banks[lc],
                ("baseline", "sprc_only", "proposed"), out)
    compare("chain/LC3/healthy", config(load_case="LC3", fault_blade=0),
            banks["LC3"], ("sprc_only", "proposed"), out)


def acceptance(banks: dict, out: list[str], config=harness.RunConfig) -> None:
    for i in range(20):
        cfg = config(
            mode="proposed", load_case=LOAD_CASES[i % 3], seed=1000 + i,
            duration_s=900.0, fault_blade=0, fault_time_s=0.0,
        )
        run(f"A1/{i}", cfg, out)
    for lc in LOAD_CASES:
        for seed in range(20):
            cfg = config(
                mode="proposed", load_case=lc, seed=seed, duration_s=400.0,
                fault_blade=3, fault_time_s=300.0,
            )
            run(f"A2/{lc}/{seed}", cfg, out, bank=banks[lc])
    cfg = config(
        mode="sprc_only", load_case="LC3", seed=21, duration_s=150.0,
        fault_blade=0, fault_time_s=0.0,
    )
    run("A5", cfg, out)
    for lc in LOAD_CASES:
        compare(f"A6/{lc}", config(mode="proposed", load_case=lc, seed=7),
                banks[lc], ("baseline", "proposed"), out)
    for lc, n_seeds in (("LC1", 7), ("LC2", 7), ("LC3", 6)):
        for seed in range(n_seeds):
            cfg = config(
                mode="proposed", load_case=lc, seed=seed, duration_s=550.0,
                fault_blade=3, fault_time_s=300.0,
            )
            run(f"A7/{lc}/{seed}/warm", cfg, out, bank=banks[lc])
            run(f"A7/{lc}/{seed}/cold", replace(cfg, mode="sprc_only"), out)
    cfg = config(
        mode="proposed", load_case="LC3", seed=17, duration_s=420.0,
        fault_blade=3, fault_time_s=300.0,
    )
    run("A9", cfg, out, bank=banks["LC3"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--acceptance", action="store_true", help="also digest the acceptance runs")
    parser.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE", dest="overrides",
        help="override a RunConfig field on every run (repeatable)",
    )
    parser.add_argument(
        "--ident-decimation", type=int, metavar="D",
        help="identify on every D-th sample instead of harness.IDENT_DECIMATION",
    )
    parser.add_argument("--out", help="write the digest lines here as well")
    parser.add_argument("--against", help="digest file to compare with; exit 1 on any difference")
    args = parser.parse_args(argv)
    if args.ident_decimation is not None:
        if args.ident_decimation < 1:
            parser.error("--ident-decimation must be at least 1")
        harness.IDENT_DECIMATION = args.ident_decimation
    overrides = {}
    for item in args.overrides:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--set {item!r}: expected FIELD=VALUE")
        try:
            overrides[name] = json.loads(value)
        except json.JSONDecodeError:
            overrides[name] = value

    def config(**fields) -> harness.RunConfig:
        """The chain's config with these fields, the overrides applied last."""
        return harness.RunConfig(**{**fields, **overrides})

    try:
        config()
    except (TypeError, ValueError) as exc:
        parser.error(f"--set: {exc}")

    out: list[str] = []
    banks = {lc: tune(lc, out, config) for lc in LOAD_CASES}
    chain(banks, out, config)
    if args.acceptance:
        acceptance(banks, out, config)
    text = "\n".join(out) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    if args.against is None:
        return 0
    with open(args.against) as handle:
        expected = dict(line.split() for line in handle if line.strip())
    got = dict(line.split() for line in out)
    shared = expected.keys() & got.keys()
    differ = sorted(k for k in shared if expected[k] != got[k])
    for name in differ:
        print(f"DIFFERS {name}: {expected[name]} -> {got[name]}", file=sys.stderr)
    one_sided = (
        (args.against, expected.keys() - got.keys()),
        ("this run", got.keys() - expected.keys()),
    )
    for side, names in one_sided:
        if names:
            groups = ", ".join(sorted({name.split("/")[0] for name in names}))
            print(f"MISSING {len(names)} artifacts only in {side} ({groups})", file=sys.stderr)
    # one line per top-level group (tune, chain, A1...), so a protocol change
    # shows at a glance which runs moved
    for group in sorted({name.split("/")[0] for name in shared}):
        mine = [name for name in shared if name.split("/")[0] == group]
        moved = sum(expected[name] != got[name] for name in mine)
        print(f"GROUP {group}: {len(mine)} shared, {len(mine) - moved} equal, {moved} differ",
              file=sys.stderr)
    print(f"{len(shared) - len(differ)} of {len(shared)} shared digests equal", file=sys.stderr)
    return 1 if differ or any(names for _, names in one_sided) else 0


if __name__ == "__main__":
    sys.exit(main())
