"""Golden traces: byte-exact outputs of short closed-loop windows.

Each case runs 0.05 s (50 control ticks) of a bundled scenario with one
solver and compares the SHA-256 of the trace CSV, of the summary JSON as the
CLI writes it, and of the raw ``qdd``/``tau_ext`` trace arrays (these feed
criteria 5 and 9 but are not in the CSV). The pairs are those that the
acceptance suite and the experiment scripts run; ``limit_push`` runs with and
without external torques in the bounds. The ``early`` variants move the
scenario's event to t = 0.01 s so that the window also crosses the
external-torque paths. No window reaches the end of a tracker's waypoints.

A change that alters any trace byte on purpose must say why and record the
new hashes here.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dcts import sim

WINDOW_S = 0.05
EARLY_EVENT_S = 0.01

# (scenario, solver, variant) -> SHA-256 of (csv, summary, arrays); the
# variant is "", "early" or "no-bounds". The limit_push bounds do not bind
# within 0.05 s, so with and without offsets give the same bytes there;
# criterion 8 covers the difference over the whole push.
GOLDEN = {
    ("rotation_hold", "osc", ""): (
        "1bf6f04ce02e0150159ebc823fae9d3db3937defacbf4320b424f9f125e2d4fe",
        "43be4a80acf2f29eb7a52e25dd2189784bda500d94b93f31b7c2fa4a0de8724d",
        "c74d33dbfdac4a715a6cade683d3dd83f211ed7514fd73a6866f2bab29799ebf"),
    ("rotation_hold", "dcts", ""): (
        "4aea9501b607dbb836b45846d0cccfa7287fbb754ed8c7702d86ae854115408f",
        "8fb1cfa55704e8fd5aa381261e95f2b6f9961727b2ec1e444b42eab172e5cccb",
        "8fa87790e473f1a7c4a678724dc0525e23ae51bba15c0a199ed5df9ee58cf8d4"),
    ("rotation_hold", "qp-mt", ""): (
        "a669b71f41bead6780ace48a1bab0667b5a651784d925baa66ce2631068bd49d",
        "22a1b989e5f07fb6f642f8f1f684d1d0dfaad1e2c826dcdb74ebd5de9883b1e2",
        "abdf3745bf8ec4c2f27e80c08d5cbbc03b70f8fdb9dd431c2580c5296b27ea20"),
    ("rotation_hold", "qp-md", ""): (
        "87f6532e88a4102d623e4a989d4c8452b92db26f2d9c103564054ee92cc69880",
        "3420b7adc8a731d41b53739c6453ff89b893a1b0c8dc8a08c0dbb3e53d54fec2",
        "9c61bc48b17414a9f6550c38b9bdf45283b70506a7d6849e5b93aa2e6bba0e53"),
    ("push_recovery", "osc", ""): (
        "f2de1ef3c2a406ce76cc0c9400e864c16e411c59bc3b462dc68a51982ad24e8a",
        "983dc09956acd65b67655c491840bef4da0cd6a3eac16b5dac306ca4e3740e37",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("push_recovery", "dcts", ""): (
        "f2de1ef3c2a406ce76cc0c9400e864c16e411c59bc3b462dc68a51982ad24e8a",
        "9984de9b9ea11095945472b9c6a478183ddeeae12ca12cda2cce380cc14b17c2",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("push_recovery", "qp-md", ""): (
        "f2de1ef3c2a406ce76cc0c9400e864c16e411c59bc3b462dc68a51982ad24e8a",
        "bbe0793d186096db4937052dcfa57af53a929f9e07d99dbe637a0649c4efdf3c",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("push_recovery", "osc", "early"): (
        "bcc2b708a4cde0db4d38d5e2172caab75dde14f3cd11e5bba7807045a3d8288e",
        "6bd08699c3022f587bcba49d03c833f6cac72beed022cc9ead365fdb2f1b62e2",
        "42bbf7c80a428128c522e8bfeea2165c94e0841bdbd4ab8d48510e2ab9dc47fe"),
    ("push_recovery", "dcts", "early"): (
        "48702bcc7967e1bc75c305234b231bd8cba7862e5ce183b7e62a7a02628dc80f",
        "893692243d57972ead7f7dc9f1bea814291a6a855a86189b44fa716bfd9df218",
        "41a8acb3aed6a80f515969ba684caabf02b64adb02ce34e9d8bb2c5fee6b47e9"),
    ("push_recovery", "qp-md", "early"): (
        "29cc243ae74bf09e8163f2bfb7c05dd5064cfdee6999d1d80e3e843b1573cc02",
        "3490d75b7ee1a274663d3cca28d138ff6ce80017b9debd28da77f560576d38fa",
        "d9f1a2bb6a088b0a7503a8cf9fb6ce4a8f4662dd28452feffed31d11429ee328"),
    ("star_octagon", "dcts", ""): (
        "5ae2654f7b72f3111ac7dabccf0d15837b47f8c749ce48674bdd2c911a00b7f7",
        "9d4021afed03f332ee0b92d18f9b0f7ef250d861f9f488f33494e245512ad95a",
        "14b4b040cbb6b85652ed9a81925202577ae99fd7a015b82c1d2a2ff8246766e2"),
    ("star_octagon", "osc", ""): (
        "27603c83e38e87773aee4e3f8acfd53aa566bd611c33a453305ddd61e59a1841",
        "862d2e72e37458e532f06a0fd6429112cf97a2d03318d766191250185a945067",
        "25f664de482cf66879a52a83e5dd7c69ac8752f5a415b7dcaff623408e0cb2c0"),
    ("payload_drop", "osc", ""): (
        "f4a0d79dd032d36d8d8f3e7e2c8896966c36f02c842374618c7b2f6753428f86",
        "d9b2865309777b52f87a3be85194eecda6848b445f572d65fe5c0857ab731470",
        "0faddc19bc1822f97b18cfd97a2c72cf6235cf6112b118df339f6da65e567197"),
    ("payload_drop", "dcts", ""): (
        "b6dfa0156f9b614c34827622ed02342148fdf8c3640469f262bf90d1696d9c51",
        "a34159b6234a1efe1c1993492ce7ccc333473de58ca71833104e48ce89ec72ca",
        "767ab4b45861bf13c53c1037242c2d54af1a5c1d57e2cb62ed4b241fd7251d63"),
    ("payload_drop", "qp-md", ""): (
        "020abff89655d03a07d1b8b7efe1600c4f777a76ab05ccaa8ea59a902e0e9c56",
        "0ecdcfc0d65d84aa793dc214d18dc4ea383165595c15d3679d00ce187a6d7631",
        "d663529dc8133e32189f07fc49e7c511f14d23c208c115ce9af23188ff29bbe6"),
    ("limit_push", "dcts", ""): (
        "02449e2d143915675956770fc433152fc6ec9320a5e7d22cb181179a6cd1738d",
        "05e0af1332d6eed1b7028960d61c8aba5ca061a5cc14f03afeebd5a254332f11",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("limit_push", "dcts", "no-bounds"): (
        "02449e2d143915675956770fc433152fc6ec9320a5e7d22cb181179a6cd1738d",
        "05e0af1332d6eed1b7028960d61c8aba5ca061a5cc14f03afeebd5a254332f11",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("limit_push", "dcts", "early"): (
        "9154faeda0f40efa26431601483d31587b066071d871d64619118ddaf28c8f5f",
        "b91c5aacc6f5f33bf6628c175be969efab0235cf5410f6fbf01a8307c5a74ea9",
        "695f034f1e00b66159539094ccfffd4509760ab03aa045fbc613a9f7367db942"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def window_hashes(scenario: str, solver: str, variant: str,
                  tmp_path) -> tuple[str, str, str]:
    sc = sim.load_bundled_scenario(scenario)
    sc.duration = WINDOW_S
    if "early" in variant:
        sc.events[0].start = EARLY_EVENT_S
    if "no-bounds" in variant:
        sc.solver_config.ext_force_in_bounds = False
    [trace] = sim.run_scenario(sc, [solver])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    summary = json.dumps(trace.summary(), indent=2, sort_keys=True) + "\n"
    arrays = np.ascontiguousarray(trace.qdd).tobytes() + \
        np.ascontiguousarray(trace.tau_ext).tobytes()
    return _sha(path.read_bytes()), _sha(summary.encode()), _sha(arrays)


@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda case: "/".join(filter(None, case)))
def test_golden_window(case, tmp_path):
    assert window_hashes(*case, tmp_path) == GOLDEN[case]
