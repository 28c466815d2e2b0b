"""The sha256 of every file the small CLI recipe writes.

    python3 tools/output_digest.py --work DIR

Run from the root of a source checkout. Runs the small CLI recipe
through `ecgrecon.cli.main` into DIR, with one BLAS thread: synth (3
classes x 10 patients x 1 record of 6 s, seed 0), `preprocess
--verify-checksums`, split, `pretrain --epochs 1 --batch-size 32 --seed
0`, embed, conditioned and `--clean-only` train (`--epochs 1 --seed 0`
each), evaluate with `--baseline-decoders`, reconstruct and `affinity --k
3 --split train`. The `pipeline` fixture of `tests/test_cli.py` runs the
first seven of these stages. Prints one JSON object: "files" maps the
path of every file under DIR, relative to DIR, to its sha256, and
"versions" names the numpy, scipy and OpenBLAS the bytes came from. Each
stage's `manifest.json` is digested with its `started` and `finished`
timestamps removed. Stage manifests and `splits.json` hold absolute paths
under DIR; they are digested with DIR replaced by `<work>`, so a digest
does not depend on DIR. A stage that exits non-zero stops the script
with exit 1.

    python3 tools/output_digest.py --work DIR --compare FILE

also compares the digest with FILE, a digest this script printed before
(for instance at the parent commit; `tests/output_digest.json` is the
one the Tier-1 suite checks). It writes one line to stderr for every
path whose sha256 differs and every path that only one of the two holds,
then one for each version that differs, and then a count; any such path
makes the exit status 1. OpenBLAS picks its kernels for the CPU it runs
on, so the same versions on another CPU may still round differently.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def recipe(work):
    """The argument lists of the recipe's stages, in order, writing into `work`."""
    d = {name: str(work / name) for name in
         ("raw", "pre", "split", "pretrain", "embed", "dec", "dec_c", "eval", "recon", "aff")}
    split = ["--data", d["split"]]
    decoders = [*split, "--encoder", d["pretrain"], "--decoders", d["dec"]]
    return [
        ["synth", "--out", d["raw"], "--classes", "3", "--patients", "10",
         "--records", "1", "--duration", "6", "--seed", "0"],
        ["preprocess", "--out", d["pre"], "--data", d["raw"], "--verify-checksums"],
        ["split", "--out", d["split"], "--data", d["pre"]],
        ["pretrain", "--out", d["pretrain"], *split, "--epochs", "1",
         "--batch-size", "32", "--seed", "0"],
        ["embed", "--out", d["embed"], *split, "--encoder", d["pretrain"]],
        ["train", "--out", d["dec"], *split, "--embeddings", d["embed"],
         "--epochs", "1", "--seed", "0"],
        ["train", "--out", d["dec_c"], *split, "--embeddings", d["embed"],
         "--epochs", "1", "--seed", "0", "--clean-only"],
        ["evaluate", "--out", d["eval"], *decoders, "--baseline-decoders", d["dec_c"]],
        ["reconstruct", "--out", d["recon"], *decoders],
        ["affinity", "--out", d["aff"], *split, "--embeddings", d["embed"],
         "--k", "3", "--split", "train"],
    ]


def _placeholder(value, work):
    """`value`, a parsed JSON document, with `work` replaced by `<work>` in
    every string it holds."""
    if isinstance(value, str):
        return value.replace(str(work), "<work>")
    if isinstance(value, list):
        return [_placeholder(v, work) for v in value]
    if isinstance(value, dict):
        return {k: _placeholder(v, work) for k, v in value.items()}
    return value


def _content(path, work):
    """The bytes of `path`; a stage manifest, less its timestamps, and
    `splits.json` with `work` replaced by `<work>`."""
    rel = path.relative_to(work).parts[1:]
    if rel not in (("manifest.json",), ("splits.json",)):
        return path.read_bytes()
    doc = json.loads(path.read_text())
    if rel == ("manifest.json",):
        del doc["started"], doc["finished"]
    return json.dumps(_placeholder(doc, work), indent=1).encode()


def digest(work):
    """{path relative to `work`: sha256} of every file under `work`."""
    return {str(path.relative_to(work)): hashlib.sha256(_content(path, work)).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()}


def versions():
    """The numpy, scipy and OpenBLAS versions of this interpreter."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas['name']} {blas['version']}"}


def compare(got, want):
    """One line for each path whose digest in `got` differs from `want`'s,
    or that only one of the two holds, in path order."""
    lines = {p: f"differs: {p}" for p in got.keys() & want.keys() if got[p] != want[p]}
    lines.update({p: f"missing: {p} (not written)" for p in want.keys() - got.keys()})
    lines.update({p: f"missing: {p} (not in the saved digest)" for p in got.keys() - want.keys()})
    return [lines[p] for p in sorted(lines)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True, help="directory the stages write into")
    parser.add_argument("--compare", metavar="FILE",
                        help="a saved digest JSON to compare this run's digest with")
    args = parser.parse_args(argv)
    want = None
    if args.compare:
        try:
            want = json.loads(Path(args.compare).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"--compare {args.compare}: {exc}")
        if not (isinstance(want, dict) and isinstance(want.get("files"), dict)
                and isinstance(want.get("versions"), dict)):
            parser.error(f"--compare {args.compare}: not a JSON object with "
                         "\"files\" and \"versions\" objects")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src")]
    from ecgrecon.cli import main as run

    work = Path(args.work).resolve()
    for argv in recipe(work):
        with contextlib.redirect_stdout(sys.stderr):    # stdout holds only the digest
            code = run(argv)
        if code != 0:
            print(f"output_digest: {argv[0]} exited {code}", file=sys.stderr)
            return 1
    got = {"versions": versions(), "files": digest(work)}
    print(json.dumps(got, indent=1))
    if want is None:
        return 0
    mismatches = compare(got["files"], want["files"])
    moved = [f"version: {k} {got['versions'].get(k)} here, {v} in the saved digest"
             for k, v in sorted(want["versions"].items()) if got["versions"].get(k) != v]
    for line in mismatches + moved:
        print(f"output_digest: {line}", file=sys.stderr)
    paths = got["files"].keys() | want["files"].keys()
    print(f"output_digest: {len(mismatches)} of {len(paths)} paths "
          f"differ from {args.compare}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
