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
        "287d5a1e6f39faf73f8c3c75511c61cb3540c7749a48eb21ba35992cf5a4a297",
        "40c8a95d530aa5acc3f5c041dd6f30888b7e5884ce626025e38309b4102684d9",
        "2999b51c46f1c239de8295d77693c93ce5386da14932547b914e57438f038f22"),
    ("rotation_hold", "dcts", ""): (
        "5332e5a2c062d824d6bc1b3667b47d121f6c0942ec684f50507968ced8e70451",
        "3daaf9c658ea88bd686f88f35388d669800b8aa8f85d3c9f996a58d1f478f8d0",
        "6c15fbfd125828e48193756ab8e233e40b183f56f04dfbdda9aa7c080aafd3f3"),
    ("rotation_hold", "qp-mt", ""): (
        "003c47c57eb2e9ee50f3ce17fba14ddd2ec6ebae700528814e999278d74daaf9",
        "452450b67049afe34363304bd013d01633458e3a279271af7d7016681bcb64db",
        "b549516f2ce26c6545e21e253e3413da74887a4051227994e56468a09395fa6d"),
    ("rotation_hold", "qp-md", ""): (
        "713be1258f29b575cbf272c9fc9b45bbd0727d2ac0b605dcb92d24e7ae84d734",
        "b0b0c3be5e77c7c69e28b49d279a56a75258f59444aa2f41487b672f73ad7ec4",
        "0b8225fce1025633d6fd1840ad543b47525ed43a1b21b522f2a448a3cf421d1f"),
    ("push_recovery", "osc", ""): (
        "c3400928704f634faf41fa99a6f693b1085497bfc87eeb22d843f2f7bc19eba5",
        "983dc09956acd65b67655c491840bef4da0cd6a3eac16b5dac306ca4e3740e37",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("push_recovery", "dcts", ""): (
        "c3400928704f634faf41fa99a6f693b1085497bfc87eeb22d843f2f7bc19eba5",
        "9984de9b9ea11095945472b9c6a478183ddeeae12ca12cda2cce380cc14b17c2",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("push_recovery", "qp-md", ""): (
        "c3400928704f634faf41fa99a6f693b1085497bfc87eeb22d843f2f7bc19eba5",
        "bbe0793d186096db4937052dcfa57af53a929f9e07d99dbe637a0649c4efdf3c",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("push_recovery", "osc", "early"): (
        "c181da243a62a9f72ec2de502bb674e1f3df102c7e7c3d60a8c024121dfeeadb",
        "f23fa1345eafe6394c1d44ea661728dcab762e06c5da552937389316efd2a016",
        "113b799ef4c5d7b4a79a75e94103adeb59cd4254a749c3abcef1abe56f2ca681"),
    ("push_recovery", "dcts", "early"): (
        "cca1bb08916dd2ac5955183b51e4b18672b883b41ec1208a8f8a383f552bc78a",
        "e32632d5e3fcf8c4e3a12865f2d9aeef74a276eb81d049c28e65c0b7099c010c",
        "3cb79637294cdbc19776cbc2fb5907c67199d13978b6386467fd84256e401d47"),
    ("push_recovery", "qp-md", "early"): (
        "9c486914e484690e913ca0165944f5cee786ea9488ea89624001316fb826fd0a",
        "3d96a80104fb938910cf51a648c55ce8eb032711cad9f91759387edd05cdaebd",
        "47a17c1d4ff5739f57118d137260cff98ab4f2bfb92f6deacc46878b7dbc56e0"),
    ("star_octagon", "dcts", ""): (
        "9cd7ce1d11892b5eb23350ec49e5050058a8dde2368e1ffb9d96c5e5f385bebb",
        "237ddb161db304cced5910cde1bc4a5e5fbb1b2fad7b5d4d889903db96f62be7",
        "5fb1ffe56f6fd47b268ccbc15a21d2129dfe295ea010ee5751443418f72f7e0b"),
    ("star_octagon", "osc", ""): (
        "232a7d97db94f1c446fe68b065c4b5566454652d16d6195838a07f4567997ce3",
        "e77cf6d878b4de44811be3a983942e7dc8d29b614be56589efd866ff9a8ff1e2",
        "11ab81c2a8dee1ead39692395e7e2e2b664db264b4ae7818d1465b36dc5e3c34"),
    ("payload_drop", "osc", ""): (
        "f01d4204c9d267431eb4df6ce05eb8f16d1dd621a921a505e0648c0a4cd82dc2",
        "81a527f10cbc30f5607edb09b230aeaa5376daaf2d6ff63e7aafdc8feee47f20",
        "d820d922919bf54950b23cdd29f77b6398b4ba6c40b34f78163de439be12690a"),
    ("payload_drop", "dcts", ""): (
        "f8014b42e26d8c67890c637e3b02de6344022be6c3b8b2c2e6f78efd32a82e60",
        "bf0483ad13871e50d7e00fc58e2da1b84ca017973f05de65e6a2f1ecc7329e91",
        "be6e6a506ce1622d9c142d65d4901b5f1d982de36454b5e262b9ac99e0ae6028"),
    ("payload_drop", "qp-md", ""): (
        "5d40f3560ff03ed890a780f4183f5c03a4eaac81ab8cf167b9b11dfb655871de",
        "8d36538a57841463638c519d8f376cd02ca902914f79a64a5fd1eeb0df7755c8",
        "b81948fff3a7ffd5f582b1bde5d5e0e323b5adab3e8b3ab521fa103cf585ae7a"),
    ("limit_push", "dcts", ""): (
        "a82b7320cbdd2833553b616cdc9f13e948a21e363abc5fd212e555b4bc873489",
        "143454646ca81eea315e504f008e64daaf934d55683d41ab9649431765a1173d",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("limit_push", "dcts", "no-bounds"): (
        "a82b7320cbdd2833553b616cdc9f13e948a21e363abc5fd212e555b4bc873489",
        "143454646ca81eea315e504f008e64daaf934d55683d41ab9649431765a1173d",
        "1677f96c3d965a44953cb644796fd1137be5df37e38513fd5587e55751f23880"),
    ("limit_push", "dcts", "early"): (
        "444e778ef397bc90253caffd7c18a1363d6b867e9ceeaeb74e4917e8959dae11",
        "1092f4ffcb03c2a351d09d8422b47a323ce1dd8bdb284214a8f27ef367fb96af",
        "c4dbbdd60b91c84516684b2f50a48d67f50accae401943a5d9cf74105976d55a"),
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
