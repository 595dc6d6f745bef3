"""Print a digest of the command line's outputs, one line per call and per file.

A fixed list of ``fbmecon.cli.main`` calls runs in-process, each writing into
its own folder of one temporary directory: a simulation and the recovery of
its path, once with the base calibration and twice with tables whose cells
reach the text writer's edges (a memoryless path with D0 = 1e-20, whose
memory cells are all 0 and whose D_hat is in exponent form, and D0 = 9.5e16,
whose D_hat crosses 1e17), once with N = 40000 and refine = 4, whose
convolutions span several FFT blocks (10 for the simulation, 3 for the
recovery), and once with H = 0.9, epsilon = 1e-5, N = 256 and refine = 4,
whose recovery is ill-conditioned and refused (``estimate_illconditioned``);
a convergence study, ``sweep --figures`` on the benchmark grid, on a grid of
edge values and on a grid whose labels reach the text writer's edges, single
states at both boundaries and inside, a calibration with no equilibrium,
five runs that fail validation (two of them sweeps over a y grid that
cannot be built: y_stop = inf, and a point count that overflows at
y_stop = 1e308), and three convergence studies whose
``--factors`` are refused: ``8,x`` and ``2.5,4``, which are not integer
lists, and ``0,8,16`` at ``--n-fine 64``, whose factor 0 is below 1.  Each
call gives the line ``label exit=<code> stdout=<sha256> stderr=<sha256>``
and each file it wrote the line ``label/file <sha256>``; the temporary path
is masked in the captured text.  The lines are printed sorted.  Run it on
two versions of the package and diff the outputs to see which outputs a
change alters:

    PYTHONPATH=src python tools/cli_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python tools/cli_digest.py > old.txt
    diff old.txt new.txt

It takes no options; it needs only numpy and the standard library.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import tempfile
from pathlib import Path

from fbmecon import BASE_PARAMS, ModelParams, cli

BENCH_GRID = {"y_start": 0.0, "y_stop": 1.0, "y_step": 0.01,
              "p_list": "1,0.9,0.6,0.3,0", "Lambda_list": "-5,0,5"}
# edge values; NaN and +-inf levels reach the manifest's NaN, Infinity and -Infinity
EDGE_GRID = {"p_list": "1,0.9,0.6,0.3,0,2,nan,-0.0",
             "Lambda_list": "1e4,-1e4,5,-5,0,700,nan,-0.0,53,inf,-inf", "y_step": 0.25}
# labels in the exponent form (1e-5), printed by "%" itself (1e-7, 5e-324, 1e17) and -0
LABEL_GRID = {"y_start": 0, "y_stop": 3e-5, "y_step": 1e-5,
              "p_list": "1e-7,0.6,1", "Lambda_list": "5e-324,-0.0,1e17,2.5"}
# the calibration of demos/03_equilibrium_tour.py under which no region is self-consistent
NO_EQUILIBRIUM = ModelParams(
    mu_D=0.015, sigma_D=0.01, H=0.5, epsilon=0.1, gamma_C=3.0, gamma_M=3.0,
    alpha_C=1.0, alpha_M=1.0, rho=0.01, k=2.0, p=0.5, l_C=0.0, l_M=0.0, beta1=0.1,
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_config(path: Path, params: ModelParams = BASE_PARAMS, **extra) -> str:
    lines = [f"{f.name} = {getattr(params, f.name)!r}" for f in dataclasses.fields(params)]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def calls(tmp: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every call, in the order they run; {out} is the call's folder."""
    base = write_config(tmp / "base.cfg", N=2000, refine=8)
    tiny = write_config(tmp / "tiny.cfg", dataclasses.replace(BASE_PARAMS, H=0.5), N=2000,
                        refine=8, D0=1e-20)
    huge = write_config(tmp / "huge.cfg", N=2000, refine=8, D0=9.5e16)
    blocks = write_config(tmp / "blocks.cfg", N=40000, refine=4)
    steep = write_config(tmp / "steep.cfg", dataclasses.replace(BASE_PARAMS, H=0.9, epsilon=1e-5),
                         N=256, refine=4)
    bench = write_config(tmp / "bench.cfg", **BENCH_GRID)
    edge = write_config(tmp / "edge.cfg", **EDGE_GRID)
    labels = write_config(tmp / "labels.cfg", **LABEL_GRID)
    none = write_config(tmp / "none.cfg", NO_EQUILIBRIUM)
    bad_rho = write_config(tmp / "bad_rho.cfg", dataclasses.replace(BASE_PARAMS, rho=-1.0))
    bad_list = write_config(tmp / "bad_list.cfg", p_list="1,x")
    inf_y = write_config(tmp / "inf_y.cfg", y_stop="inf")
    huge_y = write_config(tmp / "huge_y.cfg", y_stop="1e308", y_step="0.05")
    out = []
    for label, cfg in (("", base), ("_tiny", tiny), ("_huge", huge), ("_blocks", blocks),
                       ("_illconditioned", steep)):
        paths_csv = str(tmp / f"simulate{label}" / "paths.csv")
        out += [
            (f"simulate{label}", ["--config", cfg, "--seed", "3", "--out", paths_csv, "simulate"]),
            (f"estimate{label}", ["--config", cfg, "--out", "{out}/memory.csv", "estimate",
                                  paths_csv, "--summary"]),
        ]
    out += [
        ("convergence", ["--config", base, "--out", "{out}/convergence.csv", "convergence",
                         "--n-fine", "4096", "--factors", "4,8,16", "--seeds", "3"]),
        ("sweep_bench", ["--config", bench, "--out", "{out}/sweep.csv", "sweep",
                         "--figures", "{out}/figures"]),
        ("sweep_edge", ["--config", edge, "--out", "{out}/sweep.csv", "sweep",
                        "--figures", "{out}/figures"]),
        ("sweep_labels", ["--config", labels, "--out", "{out}/sweep.csv", "sweep",
                          "--figures", "{out}/figures"]),
    ]
    for y in ("0", "0.5", "0.9", "1"):
        for L in ("0", "-13"):
            argv = ["equilibrium", "--y", y, f"--Lambda={L}"]
            out.append((f"equilibrium_y{y}_L{L}", ["--config", base, *argv]))
            out.append((f"equilibrium_y{y}_L{L}_out",
                        ["--config", base, "--out", "{out}/state.csv", *argv]))
    out += [
        ("equilibrium_none", ["--config", none, "equilibrium", "--y", "0.5"]),
        ("error_rho", ["--config", bad_rho, "equilibrium", "--y", "0.5"]),
        ("error_no_out", ["--config", base, "simulate"]),
        ("error_p_list", ["--config", bad_list, "--out", "{out}/sweep.csv", "sweep"]),
        ("error_y_stop", ["--config", inf_y, "--out", "{out}/sweep.csv", "sweep"]),
        ("error_y_grid", ["--config", huge_y, "--out", "{out}/sweep.csv", "sweep"]),
    ]
    for label, factors, n_fine in (("junk", "8,x", "4096"), ("float", "2.5,4", "4096"),
                                   ("zero", "0,8,16", "64")):
        out.append((f"error_factors_{label}", ["--config", base, "convergence", "--factors", factors,
                                               "--n-fine", n_fine]))
    return out


def run(tmp: Path, label: str, argv: list[str]) -> list[str]:
    folder = tmp / label
    folder.mkdir(exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([a.replace("{out}", str(folder)) for a in argv])
    masked = [s.getvalue().replace(str(tmp), "<tmp>").encode() for s in (stdout, stderr)]
    lines = [f"{label} exit={code} stdout={sha(masked[0])} stderr={sha(masked[1])}"]
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        lines.append(f"{label}/{path.relative_to(folder).as_posix()} {sha(path.read_bytes())}")
    return lines


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name).resolve()
        os.chdir(tmp)
        try:
            lines = [line for label, argv in calls(tmp) for line in run(tmp, label, argv)]
        finally:
            os.chdir(cwd)
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
