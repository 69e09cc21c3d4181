from __future__ import annotations

import json

import numpy as np
import pytest

from dcts import rbd


def _joint(axis, xyz=(0, 0, 0), rpy=(0, 0, 0), mass=1.0, com=(1.0, 0, 0),
           inertia=(1e-12, 1e-12, 1e-12), q_lim=10.0, v_lim=100.0, tau_lim=1e4):
    return {
        "origin_xyz": list(xyz), "origin_rpy": list(rpy), "axis": list(axis),
        "q_min": -q_lim, "q_max": q_lim, "v_min": -v_lim, "v_max": v_lim,
        "tau_min": -tau_lim, "tau_max": tau_lim,
        "link": {"mass": mass, "com": list(com), "inertia": list(inertia) + [0, 0, 0]},
    }


def planar_dict(n_links: int, gravity=(0.0, -9.81, 0.0), masses=None, lengths=None):
    """Planar chain about z: links along +x with point masses at the tips."""
    masses = masses or [1.0] * n_links
    lengths = lengths or [1.0] * n_links
    joints = []
    for i in range(n_links):
        xyz = (0, 0, 0) if i == 0 else (lengths[i - 1], 0, 0)
        joints.append(_joint((0, 0, 1), xyz=xyz, mass=masses[i], com=(lengths[i], 0, 0)))
    return {"name": f"planar{n_links}", "gravity": list(gravity), "joints": joints,
            "tool": {"xyz": [lengths[-1], 0, 0], "rpy": [0, 0, 0]}}


@pytest.fixture(scope="session")
def iiwa():
    return rbd.load_bundled_model()


@pytest.fixture(scope="session")
def iiwa_dict():
    return json.loads(rbd.bundled_model_path().read_text())


@pytest.fixture
def planar2():
    return rbd.model_from_dict(planar_dict(2))


@pytest.fixture
def planar1():
    return rbd.model_from_dict(planar_dict(1))


@pytest.fixture
def pendulum():
    """1R pendulum: axis -y, link along +x, q measured upward from horizontal."""
    d = planar_dict(1, gravity=(0.0, 0.0, -9.81))
    d["joints"][0]["axis"] = [0, -1, 0]
    return rbd.model_from_dict(d)


def frame_pose(model, q, frame: int):
    """(position, rotation) of a link frame (``model.n`` = tool frame) in the
    world, read from ``rbd.link_transforms``, the path every run takes."""
    T = rbd.link_transforms(model, q)[model.check_frame(frame)]
    return T[:3, 3], T[:3, :3]


Q_STAR = np.array([-0.78, 2.05, 2.07, -1.65, -2.08, 2.03, 0.0])
