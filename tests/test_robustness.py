"""The robustness matrix: every kind of input cube, through the CLI.

Each shape, kind of samples and method is denoised through ``cli.main`` at
one and at two threads.  Every run exits with the code its class documents
and prints no traceback; a run that succeeds writes finite samples, and the
same bytes at both thread counts.  The library entry points leave the
caller's arrays unchanged.
"""

import json

import numpy as np
import pytest

import hscube as hs
from hscube import cli
from hscube.ccf import WindowSpec, ccf_denoise, ccf_sliding
from hscube.cdbm3d import DenoiseConfig, denoise_image
from hscube.cube import read_cube, write_cube
from hscube.evaluate import baseline_average, baseline_separate, per_slice_cdbm3d

SHAPES = [(8, 8, 4), (16, 16, 5), (7, 7, 10), (1, 1, 5), (16, 16, 1), (24, 24, 2), (8, 40, 6)]
SAMPLES = ["noise", "zero", "constant", "real", "tiny", "huge", "nan"]
DISPERSION = "1.5046,0.0042"
METHODS = {
    "ccf": ("--method", "ccf"),
    "ccf-sliding": ("--method", "ccf-sliding", "--window", 5, "--step", 2),
    "cdbm3d-slice": ("--method", "cdbm3d-slice"),
    "separate": ("--method", "separate"),
    "average-global": ("--method", "average", "--average-mode", "global",
                       "--dispersion", DISPERSION),
    "average-pairwise": ("--method", "average", "--average-mode", "pairwise",
                         "--dispersion", DISPERSION),
}
PATCH = DenoiseConfig().patch_rows  # the default patch is square


def sample_data(kind: str, shape, seed: int = 0) -> np.ndarray:
    """(rows, cols, bands) complex samples of one kind; ``nan`` is noise,
    its non-finite samples are written into the file afterwards."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "zero":
        return np.zeros(shape, complex)
    if kind == "constant":
        return np.full(shape, 1.5 - 0.5j)
    if kind == "real":
        return noise.real.astype(complex)
    return noise * {"tiny": 1e-300, "huge": 1e300}.get(kind, 1.0)


def write_input(path, kind: str, shape) -> None:
    """A CHSC cube of ``kind`` samples; a ``nan`` cube holds NaN at the first
    and the last sample and at every 7th one, written straight into the
    payload, since a ``ComplexCube`` refuses them."""
    wavelengths = np.linspace(400.0, 798.0, shape[2])
    write_cube(hs.ComplexCube(wavelengths=wavelengths, data=sample_data(kind, shape)), path)
    if kind == "nan":
        n = int(np.prod(shape))
        payload = path.stat().st_size - 16 * n
        with open(path, "r+b") as f:
            for i in sorted({0, n - 1, *range(0, n, 7)}):
                f.seek(payload + 16 * i)
                f.write(np.array([np.nan + 0j], "<c16").tobytes())


def expected_exit(shape, kind: str, method: str) -> int:
    """The documented exit code of one run (see ``cli``)."""
    rows, cols, bands = shape
    if kind == "nan":
        return 2  # non-finite samples
    if method.startswith("average"):
        return 0
    if min(rows, cols) < PATCH:
        return 2  # an image smaller than a patch, checked before the subspace
    if method.startswith("ccf"):
        if bands < 3:
            return 1  # TooFewBands: the noise estimate needs 3
        if rows * cols <= bands:
            return 1  # TooFewPixels: every window here is the whole cube
    return 0  # an all-zero cube too: ccf filters none of its eigenimages (p = 0)


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("kind", SAMPLES)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_exit_code_finite_output_and_thread_identity(tmp_path, capsys, shape, kind, method):
    source = tmp_path / "in.chsc"
    write_input(source, kind, shape)
    expected = expected_exit(shape, kind, method)
    outputs = []
    for threads in (1, 2):
        target = tmp_path / f"out{threads}.chsc"
        code, err = run(["denoise", *METHODS[method], "--threads", threads, source, target],
                        capsys)
        assert code == expected, err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and not target.exists(), err
            continue
        assert np.all(np.isfinite(read_cube(target).data))
        sidecar = json.loads((tmp_path / f"out{threads}.chsc.json").read_text())
        for key in ("input", "output", "threads"):
            del sidecar[key]
        outputs.append((target.read_bytes(), sidecar))
    if outputs:
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind", ["noise", "real", "huge", "tiny"])
def test_library_calls_leave_the_callers_arrays_unchanged(kind):
    data = sample_data(kind, (16, 16, 6), seed=1)
    cube = hs.ComplexCube(wavelengths=np.linspace(400.0, 798.0, 6), data=data)
    image = data[:, :, 0]  # a writeable, strided view of the caller's samples
    before = data.tobytes(), cube.data.tobytes(), cube.wavelengths.tobytes()
    cfg = DenoiseConfig()
    denoise_image(image, cfg)
    denoise_image(image, DenoiseConfig(sigma=float(np.abs(image).max()) / 4))
    ccf_denoise(cube, cfg, threads=2)
    ccf_sliding(cube, cfg, WindowSpec(width=5, step=2), threads=2)
    per_slice_cdbm3d(cube, cfg, threads=2)
    baseline_separate(cube, cfg, threads=2)
    for mode in ("global", "pairwise"):
        baseline_average(cube, hs.bk7(), mode)
    assert (data.tobytes(), cube.data.tobytes(), cube.wavelengths.tobytes()) == before
