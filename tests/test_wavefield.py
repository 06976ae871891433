"""Steering vectors and channel synthesis against 2-D coordinate oracles."""

import ast
import hashlib
import importlib
import inspect
import math
import re
from collections import Counter
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import squintlab
from squintlab import wavefield
from squintlab import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CarrierGrid,
    ChannelTensor,
    FieldModel,
    PathParams,
    SlicingPlan,
    beam_squint_matrix,
    channel_columns,
    path_phases,
    read_channel_dump,
    synth_channel,
    write_channel_dump,
)
from squintlab.wavefield import HYBRID, PathBatch, _element_ranges, path_slots, phasor


def make_geom(n=8, fc=7e9, spacing=None):
    """Geometry shorthand with the default half-wavelength spacing."""
    return ArrayGeometry(n, fc, spacing_m=spacing)


def make_path(theta=0.3, d=40.0, r=0.0, gain=1.0 + 0j, model=FieldModel.WIDEBAND_NEAR):
    """Path shorthand."""
    return PathParams(gain, theta, d, r, model)


def make_plan(num_antennas, sizes, num_paths=1):
    """Contiguous plan over the given block sizes with cyclic path assignment."""
    offsets, acc = [], 0
    for size in sizes:
        offsets.append(-num_antennas / 2.0 + acc + size / 2.0)
        acc += size
    assert acc == num_antennas
    assign = tuple(t % num_paths for t in range(len(sizes)))
    return SlicingPlan(tuple(sizes), assign, tuple(range(num_paths)),
                       tuple(offsets), num_antennas)


def steering(geom, path, model=FieldModel.NARROWBAND_NEAR):
    """Carrier steering vector: the phase kernel at its default, zero frequency offset."""
    return phasor(path_phases(geom, path, model=model))


def delay_ramp(grid, total_range_m):
    """Frequency ramp exp(j k df_m (r + d)): a far path's term at the array center."""
    path = make_path(theta=0.0, d=total_range_m, model=FieldModel.FAR)
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    return phasor(path_phases(make_geom(1), path, freq_dev[:, None])[:, 0])


def block_channel(geom, grid, path, plan, t):
    """Path term of subarray t, its near phases referenced to the block center's range."""
    start = sum(plan.subarray_sizes[:t])
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    phases = path_phases(geom, path, freq_dev[:, None], reference=plan.offsets[t]).T
    return path.gain * phasor(phases[start:start + plan.subarray_sizes[t]])


def squint_extreme(geom, grid, path):
    """Continuous-band squint-phase extreme (pi B / c) max |d_n - d|."""
    variation = oracles.near_distance_variation(geom.num_antennas, geom.spacing_m,
                                                path.sine_angle, path.scatterer_distance_m)
    return math.pi * grid.bandwidth_hz / SPEED_OF_LIGHT * variation


# ---------------------------------------------------------------------------
# grid and geometry plumbing
# ---------------------------------------------------------------------------


def test_default_spacing_is_half_wavelength():
    geom = make_geom(4, 7e9)
    assert geom.spacing_m == pytest.approx(SPEED_OF_LIGHT / 7e9 / 2.0, rel=1e-15)


def test_element_offsets_are_centered():
    geom = make_geom(5)
    assert np.allclose(geom.element_offsets(), [-2, -1, 0, 1, 2])
    geom = make_geom(4)
    assert np.allclose(geom.element_offsets(), [-1.5, -0.5, 0.5, 1.5])


def test_grid_from_bandwidth_keeps_product_exact():
    grid = CarrierGrid.from_bandwidth(600e6, 256)
    assert grid.subcarrier_spacing_hz == 600e6 / 256
    assert grid.bandwidth_hz == pytest.approx(600e6, rel=1e-15)
    assert np.allclose(grid.subcarrier_offsets(), np.arange(256) - 127.5)


def test_subcarrier_frequencies_bracket_the_carrier():
    grid = CarrierGrid.from_bandwidth(300e6, 1024)
    freqs = 7e9 + grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    assert freqs[0] == pytest.approx(7e9 - 300e6 / 2 + grid.subcarrier_spacing_hz / 2)
    assert freqs[-1] == pytest.approx(7e9 + 300e6 / 2 - grid.subcarrier_spacing_hz / 2)
    assert np.all(np.diff(freqs) > 0)


def test_invalid_inputs_are_rejected():
    with pytest.raises(ValueError):
        ArrayGeometry(0, 7e9)
    with pytest.raises(ValueError):
        CarrierGrid(8, -1.0)
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, 1.0, 40.0)  # sine angle on the boundary
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, 0.3, -4.0)  # negative scatterer distance
    with pytest.raises(ValueError):
        PathParams(1.0 + 0j, 0.3, 40.0, -1.0)  # negative UE range
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            PathParams(1.0 + 0j, 0.3, value)  # non-finite scatterer distance
        with pytest.raises(ValueError, match="must be finite"):
            PathParams(1.0 + 0j, 0.3, 40.0, value)  # non-finite UE range


@pytest.mark.parametrize("build", [
    lambda: ArrayGeometry(8, math.nan),
    lambda: ArrayGeometry(8, math.inf),
    lambda: ArrayGeometry(8, 7e9, spacing_m=math.inf),
    lambda: ArrayGeometry(8, 7e9, spacing_m=math.nan),
    lambda: ArrayGeometry(8, 7e9, wave_speed=math.nan),
    lambda: ArrayGeometry(8, 7e9, wave_speed=math.inf),
    lambda: CarrierGrid(4, math.inf),
    lambda: CarrierGrid(4, math.nan),
    lambda: CarrierGrid.from_bandwidth(math.nan, 4),
    lambda: CarrierGrid.from_bandwidth(math.inf, 4),
], ids=["fc-nan", "fc-inf", "spacing-inf", "spacing-nan", "speed-nan", "speed-inf",
        "df-inf", "df-nan", "bandwidth-nan", "bandwidth-inf"])
def test_geometry_and_grid_reject_non_finite_values(build):
    with pytest.raises(ValueError, match="positive and finite"):
        build()


# ---------------------------------------------------------------------------
# scatterer-antenna distance
# ---------------------------------------------------------------------------


def test_center_antenna_distance_equals_d():
    geom = make_geom(3)
    got = _element_ranges(geom, 0.7, 10.0, geom.element_offsets())[0]
    assert got[1] == pytest.approx(10.0, abs=1e-12)


def test_broadside_distance_is_pythagorean():
    geom = make_geom(3, spacing=1.0)  # offsets -1, 0, +1 meters
    got = _element_ranges(geom, 0.0, 10.0, geom.element_offsets())[0]
    assert got[2] == pytest.approx(math.sqrt(101.0), rel=1e-15)


def test_distance_matches_coordinate_oracle_at_paper_scale():
    geom = make_geom(1024, 7e9)
    expected = oracles.element_distance(1024, 0, 0.1, 10.0, geom.spacing_m)
    got = _element_ranges(geom, 0.1, 10.0, geom.element_offsets())[0]
    assert got[0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_distances_match_coordinate_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    theta = float(rng.uniform(-0.99, 0.99))
    d = float(rng.uniform(1.0, 200.0))
    geom = make_geom(n)
    got = _element_ranges(geom, theta, d, geom.element_offsets())[0]
    want = oracles.element_distances(n, theta, d, geom.spacing_m)
    assert np.allclose(got, want, rtol=1e-13)


# ---------------------------------------------------------------------------
# steering vectors
# ---------------------------------------------------------------------------


def test_near_steering_single_antenna_is_one():
    geom = make_geom(1)
    vec = steering(geom, make_path())
    assert np.allclose(vec, [1.0 + 0j], atol=1e-15)


def test_near_steering_broadside_symmetry():
    geom = make_geom(3, 7e9)
    vec = steering(geom, make_path(theta=0.0, d=10.0))
    s = geom.spacing_m
    phase = 2 * math.pi / geom.wavelength_m * (math.sqrt(100.0 + s * s) - 10.0)
    assert vec[1] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert vec[0] == pytest.approx(np.exp(1j * phase), abs=1e-12)
    assert vec[0] == pytest.approx(vec[2], abs=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_far_limit_matches_mirrored_planar_steering(seed):
    # At d ~ 1e9 m the spherical phase collapses to -delta*s*theta, which is the
    # planar steering evaluated at the mirrored angle.
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(2, 257))
        theta = float(rng.uniform(-0.99, 0.99))
        geom = make_geom(n)
        near = steering(geom, make_path(theta=theta, d=1e9))
        far = steering(geom, make_path(theta=-theta), FieldModel.FAR)
        err = np.angle(near * np.conj(far))
        assert np.max(np.abs(err)) < 1e-4


def test_planar_steering_at_zero_angle_is_ones():
    vec = steering(make_geom(16), make_path(theta=0.0), FieldModel.FAR)
    assert np.allclose(vec, 1.0, atol=1e-15)


def test_planar_steering_two_element_phases():
    geom = make_geom(2, 7e9)
    vec = steering(geom, make_path(theta=0.5), FieldModel.FAR)
    # delta = -/+ 1/2, phase = (2pi/lambda)(lambda/2) * delta * theta = -/+ pi/4
    assert np.allclose(np.angle(vec), [-math.pi / 4, math.pi / 4], atol=1e-12)


def test_planar_steering_conjugates_under_angle_flip():
    geom = make_geom(8)
    plus = steering(geom, make_path(theta=0.5), FieldModel.FAR)
    minus = steering(geom, make_path(theta=-0.5), FieldModel.FAR)
    assert np.allclose(plus, np.conj(minus), atol=1e-14)


@pytest.mark.parametrize("model, field", [
    (FieldModel.WIDEBAND_NEAR, "wn"),
    (FieldModel.NARROWBAND_NEAR, "nn"),
    (FieldModel.FAR, "far"),
])
def test_path_phases_match_the_scalar_oracle(model, field):
    geom = make_geom(24)
    grid = CarrierGrid.from_bandwidth(400e6, 6)
    path = make_path(theta=-0.35, d=18.0, r=6.0, gain=0.8 * np.exp(0.3j), model=model)
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    phases = path_phases(geom, path, freq_dev[:, None]).T
    assert phases.shape == (24, 6) and phases.dtype == np.float64
    for n in range(24):
        for m in range(6):
            want = oracles.channel_entry(path.gain, -0.35, 18.0, 6.0, n, m, 24, 6,
                                         400e6, 7e9, field)
            assert path.gain * np.exp(1j * phases[n, m]) == pytest.approx(want, abs=1e-12)


def test_path_phases_take_one_reference_per_offset():
    geom = make_geom(16)
    path = make_path(theta=0.4, d=12.0, r=3.0)
    freq_dev = np.array([0.0, 2e6])[:, None]
    refs = np.repeat([-4.0, 4.0], 8)
    rows = path_phases(geom, path, freq_dev, reference=refs).T
    for ref, half in ((-4.0, slice(0, 8)), (4.0, slice(8, 16))):
        one = path_phases(geom, path, freq_dev, reference=ref).T[half]
        np.testing.assert_array_equal(rows[half], one)
    # the default carrier is the steering phase; far paths ignore the reference
    carrier = path_phases(geom, path, model=FieldModel.NARROWBAND_NEAR)
    ranges = oracles.element_distances(16, 0.4, 12.0, geom.spacing_m)
    np.testing.assert_allclose(carrier, 2 * math.pi / geom.wavelength_m * (ranges - 12.0),
                               rtol=1e-12, atol=1e-12)
    far = path_phases(geom, path, reference=99.0, model=FieldModel.FAR)
    np.testing.assert_array_equal(far, path_phases(geom, path, model=FieldModel.FAR))


# ---------------------------------------------------------------------------
# phasor kernel: exp(j phase) as cos + j sin, bit for bit
# ---------------------------------------------------------------------------


def _bits(z):
    return np.asarray(z, dtype=np.complex128).reshape(-1).view(np.uint64)


def _near_quarter_turn(turns, ulps):
    # a few ulps either side of turns * pi / 2, where cos or sin nears zero
    x = turns * (math.pi / 2.0)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# every finite float64: +-0.0, subnormals, magnitudes up to 1.8e308
_PHASES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.builds(_near_quarter_turn, st.integers(-2**40, 2**40),
                              st.integers(-4, 4)))


@settings(max_examples=300, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                 max_side=5), elements=_PHASES),
       view=st.sampled_from(["whole", "reversed", "transposed"]))
def test_phasor_equals_complex_exponential_bit_for_bit(x, view):
    if view == "reversed" and x.ndim:
        x = x[..., ::-2]
    elif view == "transposed":
        x = x.T
    got = phasor(x)
    assert got.shape == x.shape and got.dtype == np.complex128
    assert np.array_equal(_bits(got), _bits(np.exp(1j * x)))


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e-3, 1.0, 10.0, 1e3, 1e6, 1e20, 1e300])
def test_phasor_equals_complex_exponential_on_long_arrays(scale):
    # 65,536 draws per scale, contiguous and every third element
    x = np.random.default_rng(11).uniform(-scale, scale, 1 << 16)
    for arr in (x, x[::3], x.reshape(256, 256).T):
        assert np.array_equal(_bits(phasor(arr)), _bits(np.exp(1j * arr)))
    assert np.array_equal(_bits(phasor([0.0, -0.0])), _bits([1.0, 1.0]))


def test_phasor_returns_a_fresh_array_owning_its_data():
    # numpy multiplies a temporary in place only when it owns its data, as
    # np.exp's result did; a view would round the products around it otherwise
    out = phasor(np.linspace(-4.0, 4.0, 12).reshape(3, 4))
    assert out.base is None and out.flags.c_contiguous and out.flags.writeable


def test_source_builds_every_phase_factor_with_phasor():
    exp_of_j = re.compile(r"np\.exp\(\s*-?\s*1j")
    found = [f"{path.name}:{number}"
             for path in sorted(Path(squintlab.__file__).parent.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if exp_of_j.search(line)]
    assert not found, f"use wavefield.phasor instead of np.exp(1j ...): {found}"


_PACKAGE = Path(squintlab.__file__).resolve().parent
_PERFBENCH = _PACKAGE.parents[1] / "perfbench"

#: public definitions kept although no code in the package or the benchmark calls them
_UNCALLED_API = {
    "se_slicing_closed_form": "the paper's antenna-slicing closed form, which the "
                              "acceptance gate checks the emitted SE against",
    "se_subband_closed_form": "the paper's sub-band closed form, which the "
                              "acceptance gate checks the emitted SE against",
    "read_channel_dump": "the reader of the file format `squintlab channel` writes",
}

#: public methods, properties and dataclass fields kept although no code in the
#: package or the benchmark reads them
_UNCALLED_MEMBERS = {
    "SweepResult.axis_values": "a result's axis points, which the tests and the acceptance "
                               "gate read results through; moving it into tests/ would "
                               "not remove it",
    "SweepResult.se_per_scheme": "a result's SE curve per scheme, which the tests and the "
                                 "acceptance gate read results through; moving it into "
                                 "tests/ would not remove it",
    "SweepResult.meta": "a run's config and infeasible counts, which the tests read today "
                        "and the run manifest written beside the CSV will read",
}


def _benchmark_imports():
    """Names the benchmark imports from the package, module by module."""
    names = set()
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("squintlab"):
                names.update(alias.name for alias in node.names)
    return names


def test_benchmark_names_exist_in_the_package():
    # the tests do not collect perfbench/, so a name it needs could go silently
    checks = ast.parse((_PERFBENCH / "checks.py").read_text())
    imported = [alias.name for node in ast.walk(checks)
                if isinstance(node, ast.ImportFrom) and node.module == "squintlab"
                for alias in node.names]
    tracing = ast.parse((_PERFBENCH / "tracing.py").read_text())
    meters = next(node.value for node in ast.walk(tracing) if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["METERS"])
    metered = [key.value for key in meters.keys]
    assert len(imported) > 10 and len(metered) == 5
    assert [name for name in imported + metered if not hasattr(squintlab, name)] == []
    from squintlab import cli, experiments

    for module, name in ((experiments, "resolve_threads"), (experiments, "_map_trials"),
                         (cli, "cli_main")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    # every call to an imported package name binds to its signature
    unbound, calls = [], 0
    for path in sorted(_PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name:
                    getattr(importlib.import_module(node.module), alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("squintlab") for alias in node.names}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and callable(imported.get(call.func.id))):
                continue
            signature = inspect.signature(imported[call.func.id])
            args = [None for arg in call.args if not isinstance(arg, ast.Starred)]
            kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
            unpacked = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
            try:
                (signature.bind_partial if unpacked else signature.bind)(*args, **kwargs)
            except TypeError as exc:
                unbound.append(f"{path.name}:{call.lineno} {ast.unparse(call.func)}: {exc}")
            calls += 1
    assert calls > 20 and unbound == []


def _attribute_reads(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(dec).startswith("dataclass") for dec in cls.decorator_list)


def _public_members(cls: ast.ClassDef):
    """(name, node) of a class's public methods and properties and, for a
    dataclass, its annotated fields."""
    dataclass = _is_dataclass(cls)
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name, node


def test_every_public_definition_has_a_caller():
    # a reference is a name read in code (not in a docstring) by any top-level
    # statement of the package other than the definition itself, or a name the
    # benchmark imports; the package's __init__ re-exports do not count. A
    # method or property of a public class, or a field of a public dataclass,
    # is called when its name is read as an attribute in the package or the
    # benchmark outside its own definition
    statements = [(path.name, stmt)
                  for path in sorted(_PACKAGE.glob("*.py")) if path.name != "__init__.py"
                  for stmt in ast.parse(path.read_text()).body]
    reads = [({node.id for node in ast.walk(stmt)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}, stmt)
             for _, stmt in statements]
    called = _benchmark_imports()
    uncalled = [f"{module}:{stmt.name}" for module, stmt in statements
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and stmt.name not in called and stmt.name not in _UNCALLED_API
                and not any(stmt.name in names for names, other in reads if other is not stmt)]
    assert uncalled == [], f"no caller in src/ or perfbench/: {uncalled}"
    assert all(hasattr(squintlab, name) for name in _UNCALLED_API)

    attributes = sum((_attribute_reads(stmt) for _, stmt in statements), Counter())
    for path in sorted(_PERFBENCH.glob("*.py")):
        attributes += _attribute_reads(ast.parse(path.read_text()))
    uncalled = [f"{module}:{stmt.name}.{name}" for module, stmt in statements
                if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")
                for name, member in _public_members(stmt)
                if f"{stmt.name}.{name}" not in _UNCALLED_MEMBERS
                and attributes[name] == _attribute_reads(member)[name]]
    assert uncalled == [], f"no caller in src/ or perfbench/: {uncalled}"
    for key in _UNCALLED_MEMBERS:
        cls, member = key.split(".")
        owner = getattr(squintlab, cls)
        assert hasattr(owner, member) or member in owner.__dataclass_fields__, key


#: defaulted parameters and dataclass fields kept although no call in the
#: package or the benchmark sets them
_UNSET_PARAMETERS = {
    "ArrayGeometry.spacing_m": "a physical parameter, which the geometry property tests "
                               "push far beyond the half-wavelength default",
    "ArrayGeometry.wave_speed": "a physical parameter, which the geometry property tests "
                                "push far beyond the vacuum light speed",
}


def _defaulted_parameters(tree):
    """(key, callee name, position, name) of every defaulted parameter of a function
    or method, and of every defaulted dataclass field, in one module.

    A field's callee is its class; so is the callee of an ``__init__``'s
    parameters. A method's positions do not count self or cls; a
    keyword-only parameter has position None.
    """
    methods = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = [node for node in cls.body if _is_dataclass(cls)
                  and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
        for i, field in enumerate(fields):
            if field.value is not None:
                yield f"{cls.name}.{field.target.id}", cls.name, i, field.target.id
        methods.update({node: cls.name for node in cls.body if isinstance(node, ast.FunctionDef)
                        and "staticmethod" not in map(ast.unparse, node.decorator_list)})
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        owner = methods.get(fn)
        key = fn.name if owner is None else f"{owner}.{fn.name}"
        callee = owner if fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        skip = owner is not None
        for i, arg in enumerate(positional[first:], start=first - skip):
            yield f"{key}.{arg.arg}", callee, i, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield f"{key}.{arg.arg}", callee, None, arg.arg


def _calls(tree):
    """(callee name, call) of every call in one module; ``cls(...)`` in a class names it."""
    named = {call: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for call in ast.walk(cls) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "cls"}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            func = call.func
            name = named.get(call) or getattr(func, "id", None) or getattr(func, "attr", None)
            if name is not None:
                yield name, call


def _sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether a call passes the parameter: by keyword, by position, or by unpacking."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(keyword.arg in (None, name) for keyword in call.keywords)
            or position is not None and position < len(call.args))


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a call in the package or the benchmark, matched by name, sets a
    # defaulted parameter when it names it as a keyword, covers its position
    # or unpacks *args or **kwargs; a class call maps to the class's
    # __init__ or its dataclass fields. A default that only tests change is
    # a knob with no caller
    package = [ast.parse(path.read_text()) for path in sorted(_PACKAGE.glob("*.py"))]
    benchmark = [ast.parse(path.read_text()) for path in sorted(_PERFBENCH.glob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for tree in package + benchmark:
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    unset = [key for tree in package
             for key, callee, position, name in _defaulted_parameters(tree)
             if key not in _UNSET_PARAMETERS
             and not any(_sets(call, position, name) for call in calls.get(callee, []))]
    assert unset == [], f"no call in src/ or perfbench/ sets: {unset}"
    for key in _UNSET_PARAMETERS:
        cls, field = key.split(".")
        assert getattr(squintlab, cls).__dataclass_fields__[field].default is not MISSING, key


# the batch axis: wide geometry, every field model, bit-equal to one path at a time
_PATHS = st.lists(
    st.tuples(
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),  # sine angle
        st.floats(0.5, 200.0),  # scatterer distance d
        st.floats(0.0, 200.0),  # UE range r
        st.floats(-2048.0, 2048.0),  # reference element offset
    ),
    min_size=1, max_size=6,
)
_FREQ_DEVS = st.lists(st.floats(-500e6, 500e6), min_size=1, max_size=8)


def _paths(drawn, model):
    return [PathParams(1.0, theta, d, r, model) for theta, d, r, _ in drawn]


@settings(max_examples=60, deadline=None)
@given(num_antennas=st.integers(1, 2048), center_hz=st.floats(1e9, 30e9),
       model=st.sampled_from(FieldModel), drawn=_PATHS, freq_dev=_FREQ_DEVS,
       per_row_reference=st.booleans())
def test_batched_path_phases_rows_equal_single_path_calls(
        num_antennas, center_hz, model, drawn, freq_dev, per_row_reference):
    geom = ArrayGeometry(num_antennas, center_hz)
    paths = _paths(drawn, model)
    refs = np.array([ref for *_, ref in drawn]) if per_row_reference else None
    batch = PathBatch.stack(paths, model)[:, None]
    dev = np.asarray(freq_dev)
    rows = np.moveaxis(path_phases(geom, batch, dev[:, None, None],
                                   reference=None if refs is None else refs[:, None]), 0, -1)
    assert rows.shape == (len(paths), num_antennas, len(freq_dev))
    for k, path in enumerate(paths):
        one = path_phases(geom, path, dev[:, None],
                          reference=None if refs is None else refs[k]).T
        # a scatterer within rounding of an element may give the square root
        # of a rounded negative, which both sides must then give alike
        assert np.array_equal(rows[k], one, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(num_antennas=st.integers(1, 2048), model=st.sampled_from(FieldModel),
       drawn=_PATHS, freq_dev=_FREQ_DEVS)
def test_per_column_path_phases_equal_single_path_calls(num_antennas, model, drawn,
                                                        freq_dev):
    # one path per column, each at its own frequency, as the multiuser channel
    geom = ArrayGeometry(num_antennas, 7e9)
    paths = _paths(drawn, model)
    dev = np.resize(np.asarray(freq_dev), len(paths))
    cols = path_phases(geom, PathBatch.stack(paths, model)[:, None], dev[:, None])
    assert cols.shape == (len(paths), num_antennas)
    for c, path in enumerate(paths):
        assert np.array_equal(cols[c], path_phases(geom, path, dev[c]), equal_nan=True)


def link_columns(geom, grid, paths):
    """``channel_columns`` of one link draw, M x N, from its path slots."""
    return channel_columns(geom, grid, [slot[:, None] for slot in path_slots([paths])])


def direct_column(geom, grid, paths, m, model=None):
    """Channel column m as the direct terms gain * exp(j phase), summed in path order."""
    freq_dev = (grid.subcarrier_offsets() * grid.subcarrier_spacing_hz)[m]
    out = np.zeros(geom.num_antennas, dtype=np.complex128)
    for path in paths:
        out += oracles.exp_path_term(path.gain, path_phases(geom, path, freq_dev, model=model))
    return out


@pytest.mark.parametrize("num_antennas,widths", [(48, [1, 4, 2, 3, 2]), (1024, [1] * 16)])
def test_batched_channel_columns_equal_each_users_channel(num_antennas, widths):
    # several users' columns in one call: each path slot indexed by the
    # column's user, bit-equal to each user's own direct column terms;
    # 1024 x 16 complex entries fill 256 KiB, where numpy starts to multiply
    # temporaries in place, in the other operand order
    geom = make_geom(num_antennas)
    grid = CarrierGrid.from_bandwidth(300e6, sum(widths))
    rng = np.random.default_rng(3)
    users = [[make_path(theta=rng.uniform(-0.9, 0.9), d=rng.uniform(2.0, 60.0),
                        r=rng.uniform(0.0, 60.0), gain=complex(*rng.standard_normal(2)),
                        model=model)
              for model in (FieldModel.WIDEBAND_NEAR, FieldModel.FAR,
                            FieldModel.NARROWBAND_NEAR)]
             for _ in widths]
    owners = np.repeat(np.arange(len(widths)), widths)
    slots = [slot[owners] for slot in path_slots(users)]
    cols = channel_columns(geom, grid, slots).T
    for m, user in enumerate(owners):
        assert np.array_equal(cols[:, m], direct_column(geom, grid, users[user], m))
    forced = channel_columns(geom, grid, slots, "far").T
    assert np.array_equal(forced[:, 0], direct_column(geom, grid, users[0], 0, FieldModel.FAR))
    with pytest.raises(ValueError, match="field models"):
        path_slots([users[0], users[1][::-1]])


def test_channel_columns_are_subcarrier_major_with_draws_in_row_blocks():
    # every consumer reads the channel one subcarrier at a time, so it is
    # built C-contiguous with subcarrier m's N entries in row m; T link draws
    # stack their M x N channels in row blocks, each bit-equal to the draw
    # built alone (M = 10 leaves a tail after the blocks of isqrt(M) = 3)
    geom, grid = make_geom(24), CarrierGrid.from_bandwidth(300e6, 10)
    rng = np.random.default_rng(8)
    draws = [[make_path(theta=rng.uniform(-0.9, 0.9), d=rng.uniform(2.0, 60.0),
                        r=rng.uniform(0.0, 60.0), gain=complex(*rng.standard_normal(2)),
                        model=model) for model in FieldModel]
             for _ in range(3)]
    batch = channel_columns(geom, grid, [slot[:, None] for slot in path_slots(draws)])
    assert batch.shape == (30, 24) and batch.flags.c_contiguous
    for t, paths in enumerate(draws):
        one = link_columns(geom, grid, paths)
        assert one.shape == (10, 24) and one.flags.c_contiguous
        assert np.array_equal(batch[10 * t:10 * (t + 1)].view(np.uint64), one.view(np.uint64))
        # the tensor keeps its N x M entries as the transposed view
        entries = synth_channel(geom, grid, paths).entries
        assert entries.shape == (24, 10)
        assert np.array_equal(entries.T.view(np.uint64), one.view(np.uint64))


@pytest.mark.parametrize("draws", [1, 3, 8])
def test_channel_columns_equal_across_slab_budgets(draws, monkeypatch):
    # the blocks' products go through one scratch slab; every slab budget
    # gives the same bits: one anchor block per slab, two (a ragged last slab
    # of a draw's three), two draws per slab (ragged for 3), the whole array,
    # and less than one block; M = 10 leaves a tail after blocks of B = 3
    geom, grid = make_geom(24), CarrierGrid.from_bandwidth(300e6, 10)
    rng = np.random.default_rng(draws)
    slots = path_slots([[make_path(theta=rng.uniform(-0.9, 0.9), d=rng.uniform(2.0, 60.0),
                                   r=rng.uniform(0.0, 60.0),
                                   gain=complex(*rng.standard_normal(2)), model=model)
                         for model in (*FieldModel, FieldModel.WIDEBAND_NEAR)]
                        for _ in range(draws)])
    block = 16 * 3 * 24  # bytes of one draw's anchor block of products
    built = {}
    for budget in (block, 2 * block, 2 * 3 * block, 1 << 30, 1):
        monkeypatch.setattr(wavefield, "_SLAB_BYTES", budget)
        built[budget] = channel_columns(geom, grid, [slot[:, None] for slot in slots])
    whole = built.pop(1 << 30).view(np.uint64)
    for budget, cols in built.items():
        assert np.array_equal(cols.view(np.uint64), whole), budget
    for t in range(draws):
        one = channel_columns(geom, grid, [slot[t:t + 1, None] for slot in slots])
        assert np.array_equal(one.view(np.uint64), whole[10 * t:10 * (t + 1)])


def test_dump_stays_antenna_major(tmp_path):
    # the SQNT payload is the N x M entries row-major, as before the channel
    # was built subcarrier-major: the digest is that of the antenna-major
    # build (it also fixes this platform's sin and cos bits)
    geom, grid = make_geom(8), CarrierGrid.from_bandwidth(400e6, 4)
    paths = [make_path(0.35, 12.0, 5.0, 0.8 - 0.3j),
             make_path(-0.2, 30.0, 8.0, 0.25 + 0.5j, FieldModel.NARROWBAND_NEAR),
             make_path(0.6, 90.0, 20.0, -0.4 + 0.1j, FieldModel.FAR)]
    tensor = synth_channel(geom, grid, paths)
    dest = tmp_path / "channel.bin"
    write_channel_dump(tensor, dest)
    raw = dest.read_bytes()
    assert raw[16:] == np.ascontiguousarray(tensor.entries).astype("<c16").tobytes()
    assert hashlib.sha256(raw).hexdigest() == (
        "667cdadf2910b0c4f318bafa8325db613d461e5942dda895a11abcc65a10c974")


@pytest.mark.parametrize("num_subcarriers", [3, 5, 12])
def test_batched_channel_columns_need_one_path_per_column(num_subcarriers):
    # a batch must not broadcast one user over columns it does not own
    geom, grid = make_geom(8), CarrierGrid.from_bandwidth(300e6, num_subcarriers)
    users = [[make_path(theta=0.1 * k)] for k in range(4)]
    slots = [slot[[0, 1, 2, 3]] for slot in path_slots(users)]
    with pytest.raises(ValueError, match="one path per column"):
        channel_columns(geom, grid, slots)
    with pytest.raises(ValueError, match="one path per column"):
        channel_columns(geom, grid, [path_slots(users)[0][:1]])


def test_delay_steering_center_subcarrier_is_one():
    grid = CarrierGrid(5, 1e6)
    vec = delay_ramp(grid, 123.0)
    assert vec[2] == pytest.approx(1.0 + 0j, abs=1e-15)


def test_delay_steering_full_turn_collapses_to_ones():
    grid = CarrierGrid(5, 1e6)
    vec = delay_ramp(grid, SPEED_OF_LIGHT / 1e6)
    assert np.allclose(vec, 1.0, atol=1e-9)


def test_delay_steering_matches_direct_phases():
    grid = CarrierGrid.from_bandwidth(600e6, 256)
    vec = delay_ramp(grid, 50.0)
    for m in (0, 1, 100, 255):
        delta = m - 127.5
        want = np.exp(1j * 2 * math.pi / SPEED_OF_LIGHT * delta * grid.subcarrier_spacing_hz * 50.0)
        assert vec[m] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_steering_entries_are_unit_modulus(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 129))
    m = int(rng.integers(1, 65))
    theta = float(rng.uniform(-0.99, 0.99))
    d = float(rng.uniform(1.0, 500.0))
    geom = make_geom(n)
    grid = CarrierGrid.from_bandwidth(float(rng.uniform(1e6, 1e9)), m)
    path = make_path(theta=theta, d=d, r=float(rng.uniform(0, 100)))
    for vec in (
        steering(geom, path),
        steering(geom, path, FieldModel.FAR),
        delay_ramp(grid, path.total_range_m),
    ):
        assert np.max(np.abs(np.abs(vec) - 1.0)) < 1e-12
    q = beam_squint_matrix(geom, grid, path)
    assert np.max(np.abs(np.abs(q) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# beam squint matrix
# ---------------------------------------------------------------------------


def test_squint_center_column_is_ones_for_odd_grid():
    geom = make_geom(32)
    grid = CarrierGrid(5, 10e6)
    q = beam_squint_matrix(geom, grid, make_path())
    assert np.allclose(q[:, 2], 1.0, atol=1e-15)


def test_squint_single_antenna_row_is_ones():
    geom = make_geom(1)
    grid = CarrierGrid.from_bandwidth(300e6, 16)
    q = beam_squint_matrix(geom, grid, make_path())
    assert np.allclose(q, 1.0, atol=1e-15)


def test_squint_grid_max_matches_closed_form_after_rescale():
    # Unwrapped grid phases exceed pi at this scale, so the comparison runs on
    # the brute-force phase oracle rather than np.angle of the entries.
    geom = make_geom(512, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    path = make_path(theta=0.3, d=40.0)
    grid_max = oracles.squint_phase_grid_max(512, 64, 0.3, 40.0, 300e6, 7e9)
    closed = squint_extreme(geom, grid, path)
    assert grid_max == pytest.approx(closed * 63 / 64, rel=1e-9)


def test_squint_wrap_free_grid_max_matches_entry_angles():
    # Below the boundary the phases stay inside (-pi, pi) and np.angle agrees
    # with both the oracle and the rescaled closed form.
    geom = make_geom(76, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    path = make_path(theta=0.3, d=40.0)
    q = beam_squint_matrix(geom, grid, path)
    angle_max = float(np.max(np.abs(np.angle(q))))
    want = oracles.squint_phase_grid_max(76, 64, 0.3, 40.0, 300e6, 7e9)
    assert angle_max == pytest.approx(want, rel=1e-12)
    closed = squint_extreme(geom, grid, path)
    assert angle_max == pytest.approx(closed * 63 / 64, rel=1e-9)


def test_squint_entries_match_oracle_phases_beyond_wrapping():
    geom = make_geom(512, 7e9)
    grid = CarrierGrid.from_bandwidth(300e6, 64)
    path = make_path(theta=0.3, d=40.0)
    q = beam_squint_matrix(geom, grid, path)
    spread = oracles.element_distances(512, 0.3, 40.0, geom.spacing_m) - 40.0
    offs = np.array(oracles.subcarrier_offsets(64))
    phases = 2 * math.pi / SPEED_OF_LIGHT * grid.subcarrier_spacing_hz * np.outer(spread, offs)
    assert np.allclose(q, np.exp(1j * phases), atol=1e-12)


def test_squint_phases_carry_the_range_deviation_free_of_cancellation():
    # d_n - d is formed as (d_n^2 - d^2) / (d_n + d), not as a difference of
    # two ranges of up to 2 km: the squint phase of a 1 Hz offset recovers it
    # within 1e-14 of max |d_n - d| (about 6e-16 over these draws; the
    # difference of the two float64 ranges reads about 2.6e-11)
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(400):
        n, d = int(rng.integers(2, 2049)), rng.uniform(0.5, 2000.0)
        theta = rng.uniform(-0.99, 0.99)
        geom = make_geom(n)
        q = beam_squint_matrix(geom, CarrierGrid(2, 1.0), make_path(theta=theta, d=d))
        got = np.angle(q[:, 1]) / (2.0 * math.pi / SPEED_OF_LIGHT * 0.5)
        ld = np.longdouble
        x = (np.arange(n, dtype=ld) - ld(n - 1) / 2) * ld(geom.spacing_m)
        excess = x * x - 2 * ld(d) * x * ld(theta)
        want = excess / (np.sqrt(ld(d) * ld(d) + excess) + ld(d))
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst <= 1e-14


def _longdouble_deviation(spacing_m, d, theta, offsets):
    """d_n - d at the given element offsets, in long double, as (d_n^2 - d^2) / (d_n + d)."""
    ld = np.longdouble
    x = np.asarray(offsets, dtype=ld) * ld(spacing_m)
    excess = x * x - 2 * ld(d) * x * ld(theta)
    return excess / (np.sqrt(ld(d) * ld(d) + excess) + ld(d))


def test_subarray_carrier_is_free_of_cancellation():
    # the carrier at a subarray center's offset is (d_n - d) - (d_c - d), each
    # deviation free of cancellation, not a difference of two ranges of up to
    # 2 km: against a long-double k f_c (d_n - d_c) it stays within 1e-14 of
    # k f_c max |d_n - d| (about 8.4e-16 over these draws; the center's range
    # passed as the reference read about 2.0e-11)
    rng = np.random.default_rng(2029)
    worst = 0.0
    for _ in range(400):
        n, d = int(rng.integers(2, 2049)), rng.uniform(0.5, 2000.0)
        theta = rng.uniform(-0.99, 0.99)
        centers = rng.uniform(-n / 2.0, n / 2.0, 8)
        geom = make_geom(n)
        path = make_path(theta=theta, d=d, model=FieldModel.NARROWBAND_NEAR)
        got = path_phases(geom, path, reference=centers[:, None])
        scale = np.longdouble(2.0 * math.pi / SPEED_OF_LIGHT * geom.center_freq_hz)
        spread = _longdouble_deviation(geom.spacing_m, d, theta, geom.element_offsets())
        want = scale * (spread - _longdouble_deviation(geom.spacing_m, d, theta, centers)[:, None])
        worst = max(worst, float(np.max(np.abs(got - want)) / (scale * np.max(np.abs(spread)))))
    assert worst <= 1e-14


# ---------------------------------------------------------------------------
# channel synthesis
# ---------------------------------------------------------------------------


def test_single_narrowband_path_is_rank_one():
    geom = make_geom(16)
    grid = CarrierGrid.from_bandwidth(300e6, 8)
    path = make_path(model=FieldModel.NARROWBAND_NEAR)
    tensor = synth_channel(geom, grid, [path])
    assert np.max(np.abs(np.abs(tensor.entries) - 1.0)) < 1e-12
    svals = np.linalg.svd(tensor.entries, compute_uv=False)
    assert svals[1] < 1e-9 * svals[0]


def test_wideband_center_column_collapses_to_narrowband():
    geom = make_geom(32)
    grid = CarrierGrid(5, 50e6)
    wn = synth_channel(geom, grid, [make_path(model=FieldModel.WIDEBAND_NEAR, r=20.0)])
    nn = synth_channel(geom, grid, [make_path(model=FieldModel.NARROWBAND_NEAR, r=20.0)])
    assert np.allclose(wn.entries[:, 2], nn.entries[:, 2], atol=1e-12)


def test_opposite_gains_cancel():
    geom = make_geom(8)
    grid = CarrierGrid.from_bandwidth(100e6, 4)
    plus = make_path(gain=0.7 + 0.2j)
    minus = make_path(gain=-0.7 - 0.2j)
    tensor = synth_channel(geom, grid, [plus, minus])
    assert np.max(np.abs(tensor.entries)) < 1e-12


def test_empty_path_list_is_rejected():
    with pytest.raises(ValueError):
        synth_channel(make_geom(4), CarrierGrid(4, 1e6), [])


def test_unknown_model_tag_is_rejected():
    with pytest.raises(ValueError):
        synth_channel(make_geom(4), CarrierGrid(4, 1e6), [make_path()], "plane-wave")


@pytest.mark.parametrize("field,model", [
    ("wn", FieldModel.WIDEBAND_NEAR),
    ("nn", FieldModel.NARROWBAND_NEAR),
    ("far", FieldModel.FAR),
])
def test_channel_entries_match_cmath_oracle(field, model):
    rng = np.random.default_rng(7)
    n_ant, n_sub = 16, 5
    geom = make_geom(n_ant, 7e9)
    grid = CarrierGrid.from_bandwidth(240e6, n_sub)
    gain = complex(rng.normal(), rng.normal())
    theta, d, r = 0.37, 55.0, 21.0
    path = make_path(theta=theta, d=d, r=r, gain=gain, model=model)
    tensor = synth_channel(geom, grid, [path])
    for n in range(n_ant):
        for m in range(n_sub):
            want = oracles.channel_entry(
                gain, theta, d, r, n, m, n_ant, n_sub, 240e6, 7e9, field
            )
            assert tensor.entries[n, m] == pytest.approx(want, rel=1e-12)


def test_hybrid_channel_is_sum_of_per_path_terms():
    geom = make_geom(12)
    grid = CarrierGrid.from_bandwidth(200e6, 6)
    paths = [
        make_path(theta=0.2, d=30.0, r=10.0, gain=0.9 + 0.1j, model=FieldModel.WIDEBAND_NEAR),
        make_path(theta=-0.5, d=80.0, r=5.0, gain=0.3 - 0.6j, model=FieldModel.NARROWBAND_NEAR),
        make_path(theta=0.7, d=900.0, r=0.0, gain=0.1 + 0.2j, model=FieldModel.FAR),
    ]
    total = synth_channel(geom, grid, paths).entries
    parts = sum(synth_channel(geom, grid, [p]).entries for p in paths)
    assert np.allclose(total, parts, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("num_antennas,num_subcarriers", [(128, 16), (1024, 256)])
@pytest.mark.parametrize("model_tag", ["wideband-near", "narrowband-near", "far", HYBRID])
def test_channel_columns_equal_complex_exponential_terms_bit_for_bit(
        num_antennas, num_subcarriers, model_tag):
    # a batch entry holds one path per column, each column its own user, and
    # keeps the direct form; 128 x 16 terms stay below numpy's 256 KiB
    # in-place threshold, 1024 x 256 terms (4 MiB) exceed it, so each keeps its
    # own product rounding. A link draw's terms are built in subcarrier blocks:
    # test_blocked_path_terms_are_as_accurate_as_direct_phasors bounds them.
    geom = make_geom(num_antennas)
    grid = CarrierGrid.from_bandwidth(600e6, num_subcarriers)
    rng = np.random.default_rng(num_antennas)
    freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
    batch = PathBatch(rng.standard_normal(num_subcarriers)
                      + 1j * rng.standard_normal(num_subcarriers),
                      rng.uniform(-0.9, 0.9, num_subcarriers),
                      rng.uniform(2.0, 60.0, num_subcarriers),
                      rng.uniform(0.0, 60.0, num_subcarriers), FieldModel.WIDEBAND_NEAR)
    model = FieldModel.WIDEBAND_NEAR if model_tag == HYBRID else FieldModel(model_tag)
    want = np.zeros((num_antennas, num_subcarriers), dtype=np.complex128)
    want += oracles.exp_path_term(batch.gain, path_phases(
        geom, batch[:, None], freq_dev[:, None], model=model).T)
    got = channel_columns(geom, grid, [batch], model_tag)
    assert np.array_equal(got.view(np.uint64), np.ascontiguousarray(want.T).view(np.uint64))


#: the largest error of the direct form gain * exp(j phases) against the
#: long-double reference, in units of |gain| * eps * oracles.phase_rounding_scale,
#: found over the space below by 17,000 Hypothesis examples steered towards
#: large errors plus 3,856 random draws (2.17176, rounded down). Both forms share
#: the carrier phases; random draws of either stay below 1.75
_DIRECT_MAX_ERROR = 2.171

_FIELDS = {FieldModel.WIDEBAND_NEAR: "wn", FieldModel.NARROWBAND_NEAR: "nn", FieldModel.FAR: "far"}


@settings(max_examples=100, deadline=None)
@given(num_antennas=st.integers(1, 2048), num_subcarriers=st.integers(1, 300),
       bandwidth=st.floats(1e6, 1e9), model=st.sampled_from(FieldModel),
       theta=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       d=st.floats(0.5, 200.0), r=st.floats(0.0, 200.0),
       gain_db=st.floats(-40.0, 40.0), gain_angle=st.floats(-math.pi, math.pi))
@example(num_antennas=2048, num_subcarriers=3, bandwidth=1e9, model=FieldModel.WIDEBAND_NEAR,
         theta=0.9, d=0.5, r=200.0, gain_db=40.0, gain_angle=1.0)
def test_blocked_path_terms_are_as_accurate_as_direct_phasors(
        num_antennas, num_subcarriers, bandwidth, model, theta, d, r, gain_db, gain_angle):
    # against a long-double evaluation of the same phase, a blocked term is off
    # by no more than the largest error measured for the direct form; a term
    # built in blocks of one (fewer than 4 columns) is the direct form in
    # every bit
    geom = ArrayGeometry(num_antennas, 7e9)
    grid = CarrierGrid.from_bandwidth(bandwidth, num_subcarriers)
    gain = 10.0 ** (gain_db / 20.0) * complex(math.cos(gain_angle), math.sin(gain_angle))
    path = PathParams(gain, theta, d, r, model)
    cols = np.arange(num_subcarriers)
    got = link_columns(geom, grid, [path])
    drawn = (theta, d, r, _FIELDS[model], num_antennas, num_subcarriers,
             grid.subcarrier_spacing_hz, cols, 7e9, geom.spacing_m)
    re, im = (part.T for part in oracles.path_term_longdouble(gain, *drawn))
    error = np.max(np.hypot(got.real.astype(np.longdouble) - re,
                            got.imag.astype(np.longdouble) - im))
    unit = abs(gain) * np.finfo(np.float64).eps * oracles.phase_rounding_scale(*drawn)
    assert error / unit <= _DIRECT_MAX_ERROR
    if math.isqrt(num_subcarriers) == 1:
        freq_dev = grid.subcarrier_offsets() * grid.subcarrier_spacing_hz
        direct = np.zeros(got.shape[::-1], dtype=np.complex128)
        direct += oracles.exp_path_term(gain, path_phases(geom, path, freq_dev[:, None]).T)
        direct = np.ascontiguousarray(direct.T)
        assert np.array_equal(got.view(np.uint64), direct.view(np.uint64))


@pytest.mark.parametrize("model", [FieldModel.WIDEBAND_NEAR, FieldModel.NARROWBAND_NEAR],
                         ids=["wn", "nn"])
def test_near_carrier_error_does_not_grow_with_the_scatterer_distance(model):
    # the carrier k f_c (d_n - d) is formed without subtracting two ranges, so
    # a scatterer at 200 m costs eps |d_n - d|, not eps d: unit-gain terms stay
    # within 3e-12 of the long-double reference (a difference of the two
    # float64 ranges reads about 6e-12 over these draws)
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(400):
        n, m = int(rng.integers(1, 1025)), int(rng.integers(1, 9))
        d, theta, r = rng.uniform(0.5, 200.0), rng.uniform(-0.999, 0.999), rng.uniform(0.0, 200.0)
        geom = ArrayGeometry(n, 7e9)
        grid = CarrierGrid.from_bandwidth(10.0 ** rng.uniform(6.0, 9.0), m)
        got = link_columns(geom, grid, [PathParams(1.0, theta, d, r, model)]).T
        re, im = oracles.path_term_longdouble(1.0 + 0j, theta, d, r, _FIELDS[model], n, m,
                                              grid.subcarrier_spacing_hz, np.arange(m), 7e9,
                                              geom.spacing_m)
        worst = max(worst, float(np.max(np.hypot(got.real.astype(np.longdouble) - re,
                                                  got.imag.astype(np.longdouble) - im))))
    assert worst <= 3e-12


# ---------------------------------------------------------------------------
# subarray blocks
# ---------------------------------------------------------------------------


def test_single_block_plan_reproduces_full_channel():
    geom = make_geom(24)
    grid = CarrierGrid.from_bandwidth(150e6, 8)
    path = make_path(theta=0.3, d=25.0, r=8.0)
    plan = make_plan(24, [24])
    block = block_channel(geom, grid, path, plan, 0)
    full = synth_channel(geom, grid, [path])
    assert np.allclose(block, full.entries, rtol=1e-12)


def test_broadside_halves_mirror_each_other():
    geom = make_geom(16)
    grid = CarrierGrid.from_bandwidth(150e6, 4)
    path = make_path(theta=0.0, d=30.0)
    plan = make_plan(16, [8, 8])
    top = block_channel(geom, grid, path, plan, 0)
    bottom = block_channel(geom, grid, path, plan, 1)
    assert np.allclose(top, np.flipud(bottom), rtol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_blocks_reassemble_with_relocation_phase(seed):
    # Per path: stacking the blocks and undoing the block-center reference with
    # exp(+j k f_c (d_sub - d)) must reproduce the full-array rows. Far paths
    # carry no relocation (their steering uses global offsets already).
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(8, 65))
        grid = CarrierGrid.from_bandwidth(float(rng.uniform(5e7, 6e8)), int(rng.integers(2, 9)))
        geom = make_geom(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(1, 4)), replace=False))
        sizes = np.diff([0, *cuts, n]).tolist()
        plan = make_plan(n, sizes)
        model = rng.choice([FieldModel.WIDEBAND_NEAR, FieldModel.NARROWBAND_NEAR, FieldModel.FAR])
        path = make_path(
            theta=float(rng.uniform(-0.9, 0.9)),
            d=float(rng.uniform(5.0, 200.0)),
            r=float(rng.uniform(0.0, 100.0)),
            gain=complex(rng.normal(), rng.normal()),
            model=model,
        )
        full = synth_channel(geom, grid, [path]).entries
        k = 2 * math.pi / SPEED_OF_LIGHT * geom.center_freq_hz
        rebuilt = []
        for t, size in enumerate(plan.subarray_sizes):
            block = block_channel(geom, grid, path, plan, t)
            if path.field_model is not FieldModel.FAR:
                # d_sub - d as the kernel forms it: free of cancellation
                shift = _element_ranges(geom, path.sine_angle, path.scatterer_distance_m,
                                        plan.offsets[t])[1]
                block = block * np.exp(1j * k * shift)
            rebuilt.append(block)
        assert np.allclose(np.vstack(rebuilt), full, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# dump format
# ---------------------------------------------------------------------------


def test_dump_round_trip_preserves_entries(tmp_path):
    geom = make_geom(6)
    grid = CarrierGrid.from_bandwidth(100e6, 4)
    tensor = synth_channel(geom, grid, [make_path(gain=0.5 - 0.25j)])
    dest = tmp_path / "channel.bin"
    write_channel_dump(tensor, str(dest))
    back = read_channel_dump(str(dest))
    assert back.shape == (6, 4)
    assert np.array_equal(back, tensor.entries)


def test_dump_header_layout(tmp_path):
    geom = make_geom(3)
    grid = CarrierGrid(2, 1e6)
    tensor = synth_channel(geom, grid, [make_path()])
    dest = tmp_path / "channel.bin"
    write_channel_dump(tensor, dest)
    raw = dest.read_bytes()
    assert raw[:4] == b"SQNT"
    assert int.from_bytes(raw[6:10], "little") == 3
    assert int.from_bytes(raw[10:14], "little") == 2
    assert len(raw) == 16 + 16 * 3 * 2


def test_dump_rejects_corrupt_streams(tmp_path):
    junk, short = tmp_path / "junk.bin", tmp_path / "short.bin"
    junk.write_bytes(b"JUNK" + b"\x00" * 12)
    short.write_bytes(b"SQNT")
    with pytest.raises(ValueError):
        read_channel_dump(junk)
    with pytest.raises(ValueError):
        read_channel_dump(short)


def test_tensor_shape_is_validated():
    geom = make_geom(4)
    grid = CarrierGrid(4, 1e6)
    with pytest.raises(ValueError):
        ChannelTensor(np.zeros((3, 4), dtype=complex), geom, grid, (make_path(),))
