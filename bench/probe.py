"""Cold-start probe: time ``import lie3geo.cli`` plus one operation.

Run in a fresh interpreter by ``run.py``.  Reads one input from standard
input as plain JSON (see ``workloads.probe_payload``) before the clock
starts, then prints the seconds from the start of the import to the end of
the first operation, which builds every lazily built table, the sphere
lattice included.  The operations of ``workloads.py`` are written out here
with the standard library and lie3geo only, so that the timed region holds
nothing but the program.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    payload = json.loads(sys.stdin.read())
    start = time.perf_counter()
    import lie3geo.cli
    from lie3geo import algebra, bianchi, foliation, geometry

    name = payload["workload"]
    if name == "admitting-cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lie3geo.cli.main(["--json", "foliations", "--input", payload["path"]])
        if code != 0:
            sys.stderr.write(err.getvalue())
            return 1
    else:
        constants = algebra.StructureConstants(payload["c"])
        metric = algebra.MetricSpec(payload["metric"])
        if name == "nonadmitting":
            foliation.search_directions(algebra.orthonormalize(constants, metric))
        else:
            algebra.jacobi_residual(constants)
            sc = algebra.orthonormalize(constants, metric)
            bianchi.classify(sc)
            geometry.curvature(sc)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
