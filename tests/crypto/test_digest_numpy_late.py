"""The canonical encoder never imports numpy, yet encodes numpy values
once numpy is loaded, even when numpy arrives after the encoder has
already cached classes.  The expected bytes were produced by the encoder
as it was when it imported numpy at module load."""

import subprocess
import sys
import textwrap

INT64 = "69fffffffffffffffb"
FLOAT32 = "663ff8000000000000"
INT32_2D = (
    "61730000000000000005696e7433326c0000000000000002690000000000000002"
    "690000000000000003000000000100000002000000030000000400000005000000"
)
# a transposed-column view: the encoder must make it contiguous first
FLOAT64_VIEW = (
    "61730000000000000007666c6f617436346c000000000000000269000000000000"
    "0002690000000000000002000000000000f0bf000000000000e03f000000000000"
    "0a400000000000000040"
)


def test_numpy_loaded_after_the_table_is_warm_encodes_as_before():
    code = textwrap.dedent(
        f"""
        import sys
        from repro.core.tasks import Chunk, Record
        from repro.crypto.digest import _ENCODERS, canonical_bytes

        class Seq(int):
            pass

        chunk = Chunk("t1", 0, (Record(key=(1, 2)),), True)
        before = chunk.sigma
        assert Chunk in _ENCODERS
        assert canonical_bytes(Seq(-5)) == canonical_bytes(-5)
        assert "numpy" not in sys.modules, "the encoder loaded numpy"

        import numpy as np

        got = [
            canonical_bytes(np.int64(-5)).hex(),
            canonical_bytes(np.float32(1.5)).hex(),
            canonical_bytes(np.arange(6, dtype=np.int32).reshape(2, 3)).hex(),
            canonical_bytes(
                np.array([[0.5, -1.0], [2.0, 3.25]])[:, ::-1]
            ).hex(),
        ]
        want = [{INT64!r}, {FLOAT32!r}, {INT32_2D!r}, {FLOAT64_VIEW!r}]
        assert got == want, got
        assert canonical_bytes(np.int64(-5)) == canonical_bytes(Seq(-5))
        fresh = Chunk("t1", 0, (Record(key=(1, 2)),), True)
        assert fresh.sigma == before
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
