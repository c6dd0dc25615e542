import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainflow.displacement import integrate, seeded_state
from strainflow.state import SimpleState, Trajectory, state_distance, write_csv
from strainflow.stress_models import make_model


class TestSimpleState:
    def test_weights_must_be_positive_and_normalized(self):
        with pytest.raises(ValueError):
            SimpleState(values=np.array([1.0, 2.0]), weights=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            SimpleState(values=np.array([1.0, 2.0]), weights=np.array([0.6, 0.6]))

    def test_uniform_constructor(self):
        state = SimpleState.uniform([1.0, 2.0, 3.0])
        assert np.allclose(state.weights, 1.0 / 3.0)
        assert state.mu == pytest.approx(2.0)

    def test_arrays_are_frozen(self):
        state = SimpleState.uniform([1.0, 2.0])
        with pytest.raises(ValueError):
            state.values[0] = 5.0

    def test_with_values_checks_the_values_and_shares_the_weights(self):
        state = SimpleState(values=np.array([1.0, 2.0]), weights=np.array([0.25, 0.75]))
        new = state.with_values([3.0, 4.0])
        assert type(new) is SimpleState
        assert new.weights is state.weights
        assert np.array_equal(new.values, [3.0, 4.0]) and not new.values.flags.writeable
        for bad in ([1.0], [[1.0, 2.0]], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                state.with_values(bad)

    def test_distance_requires_shared_weights(self):
        a = SimpleState.uniform([1.0, 2.0])
        b = SimpleState(values=np.array([1.0, 2.0]), weights=np.array([0.3, 0.7]))
        with pytest.raises(ValueError):
            state_distance(a, b)

    def test_distance_weighted(self):
        a = SimpleState(values=np.array([0.0, 0.0]), weights=np.array([0.25, 0.75]))
        b = SimpleState(values=np.array([2.0, 0.0]), weights=np.array([0.25, 0.75]))
        assert state_distance(a, b) == pytest.approx(1.0)


class TestTrajectory:
    def test_save_load_round_trip(self, tmp_path):
        cubic = make_model("cubic")
        state = seeded_state(cubic, 5, 0.5, seed=3)
        traj = integrate(cubic, state, 2.0, n_records=9)
        prefix = tmp_path / "traj"
        traj.save(prefix)
        back = Trajectory.load(prefix)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.values, traj.values)  # 17 digits round-trip
        assert np.array_equal(back.weights, traj.weights)
        assert back.converged == traj.converged
        assert back.metadata["model"]["name"] == "cubic"

    SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, 1e-300,
               -1e300, -1e-300, 1.0 / 3.0, 0.1, -2.5, 1.0, 123456789.0, 2.0 ** -1074 * 3]

    def test_writer_gives_the_former_bytes(self, tmp_path):
        # the former writer formatted each value with format(float(x), ".17g")
        rows = np.array(self.SPECIAL * 3).reshape(-1, 3)
        write_csv(tmp_path / "x.csv", ["a", "b", "c"], rows)
        expected = "a,b,c\n" + "".join(
            ",".join(format(float(x), ".17g") for x in row) + "\n" for row in rows)
        assert (tmp_path / "x.csv").read_text() == expected

    @pytest.mark.parametrize("n_records", [1, 2, len(SPECIAL)])
    def test_round_trip_is_bit_exact(self, tmp_path, n_records):
        vals = np.array(self.SPECIAL[:n_records])
        cols = [np.roll(vals, i) for i in range(4)]
        traj = Trajectory(
            times=np.arange(n_records) * 0.1, values=np.column_stack([vals, vals[::-1]]),
            weights=np.array([0.5, 0.5]), stress_mean=cols[0], energy=cols[1],
            dissipation=cols[2], dissipation_cum=np.abs(cols[3]),
        )
        paths = traj.save(tmp_path / "traj")
        assert paths == (str(tmp_path / "traj") + ".csv", str(tmp_path / "traj") + ".json")
        assert sorted(os.listdir(tmp_path)) == ["traj.csv", "traj.json"]  # no .tmp left
        back = Trajectory.load(tmp_path / "traj")
        bits = lambda a: np.asarray(a, dtype=float).view(np.int64)
        for name in ("times", "values", "weights", "stress_mean", "energy", "dissipation",
                     "dissipation_cum"):
            assert np.array_equal(bits(getattr(back, name)), bits(getattr(traj, name))), name
        assert back.values.shape == (n_records, 2) and back.values.flags["C_CONTIGUOUS"]

    def test_failed_save_keeps_the_previous_sidecar(self, tmp_path):
        traj = Trajectory(
            times=np.array([0.0, 1.0]), values=np.ones((2, 1)), weights=np.ones(1),
            stress_mean=np.zeros(2), energy=np.zeros(2), dissipation=np.zeros(2),
            dissipation_cum=np.zeros(2), metadata={"note": "first"},
        )
        traj.save(tmp_path / "traj")
        before = (tmp_path / "traj.json").read_bytes()
        traj.metadata["note"] = object()  # not JSON-serialisable
        with pytest.raises(TypeError):
            traj.save(tmp_path / "traj")
        assert (tmp_path / "traj.json").read_bytes() == before
        assert not (tmp_path / "traj.json.tmp").exists()

    def test_misaligned_diagnostics_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 1.0]),
                values=np.zeros((2, 3)),
                weights=np.full(3, 1 / 3),
                stress_mean=np.zeros(2),
                energy=np.zeros(1),  # wrong length
                dissipation=np.zeros(2),
                dissipation_cum=np.zeros(2),
            )


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=10),
)
def test_rearranged_mass_is_invariant(values):
    from strainflow.displacement import rearrange

    state = SimpleState.uniform(np.asarray(values))
    sorted_state, perm = rearrange(state)
    assert sorted_state.mu == pytest.approx(state.mu, abs=1e-12)
    assert np.all(np.diff(sorted_state.values) >= 0)
    assert np.array_equal(np.sort(perm), np.arange(state.n))
