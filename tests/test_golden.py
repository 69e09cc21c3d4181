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
        "6d049939af86a6c87645842a72123eef593ec016fdb9b045fed4b50322ed1bac",
        "a5a6d2c4aa65f59889dfc232620954371ed5f2bdcd478583f84ae3157e690f0d",
        "cc6d977b403a6af13f48e60307056346472e690a987f8db3aa494e0520081012"),
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
        "58911f08a0c27957e7fd241ea7810d667a19146e8b624fe0c70d15e26328cb81",
        "50c1e85c45ddfed2de829745e55824dbf8b2dfe2a8dcbe23cc2e5fdd9ea6631d",
        "3786248cb85d9beb0f0dfa252beacd7eae2fa99755aa96755d4e8ffcb03af828"),
    ("push_recovery", "qp-md", "early"): (
        "9c486914e484690e913ca0165944f5cee786ea9488ea89624001316fb826fd0a",
        "3d96a80104fb938910cf51a648c55ce8eb032711cad9f91759387edd05cdaebd",
        "47a17c1d4ff5739f57118d137260cff98ab4f2bfb92f6deacc46878b7dbc56e0"),
    ("star_octagon", "dcts", ""): (
        "35325d97df6eafd56cc5552dcb284fa1bd924a14bf7228011b25e5b3dd1f6dce",
        "60079f31373b706f7c8dba979e7e63e6f41f9b315a73b6a22e8facf435ad0c2c",
        "aac681a54a039e1ce812f12335302a242465c9eb4739f3ae97f191ceb17f8778"),
    ("star_octagon", "osc", ""): (
        "232a7d97db94f1c446fe68b065c4b5566454652d16d6195838a07f4567997ce3",
        "e77cf6d878b4de44811be3a983942e7dc8d29b614be56589efd866ff9a8ff1e2",
        "11ab81c2a8dee1ead39692395e7e2e2b664db264b4ae7818d1465b36dc5e3c34"),
    ("payload_drop", "osc", ""): (
        "f01d4204c9d267431eb4df6ce05eb8f16d1dd621a921a505e0648c0a4cd82dc2",
        "81a527f10cbc30f5607edb09b230aeaa5376daaf2d6ff63e7aafdc8feee47f20",
        "d820d922919bf54950b23cdd29f77b6398b4ba6c40b34f78163de439be12690a"),
    ("payload_drop", "dcts", ""): (
        "ed4f7587e2717ab9a5c57a5c560e9df6cde1a968e88ea06e5c93154a4eb15401",
        "b8af0120388d8efa8732f4366d1a8343f02384b7781410ebbd8b3693f992d684",
        "07ea56984ceb0824a0f62c5ca420660a4aff42cbdb56cacf99d69a3ff0e9d102"),
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
        "8f70347acf3673bc944eede17f95e9ab81f63e46ee617d98bba932522ac33c23",
        "7045d39e35939b07f739c1867bde312637368396761b5f0704f4d86d9eb9c582",
        "15520adadea7a0b582277440578c5c77154b224b108742a8abeb89e1070ec70d"),
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
