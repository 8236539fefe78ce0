"""Correctness checks run after a workload drains.

Each check talks to the service the way a client or auditor would: through
``/node/tx``, ``/node/receipt`` and ``/node/service_info``. Only the Merkle
root comparison looks inside the nodes, as an operator comparing ledgers.
"""

from __future__ import annotations

import random

from repro.crypto.certs import Certificate
from repro.errors import CCFError
from repro.ledger.receipts import Receipt
from repro.service.client import ServiceClient

RECEIPT_SAMPLE = 16
IN_FLIGHT = 400


def _live_nodes(service) -> list:
    return [
        node for node in service.nodes.values()
        if not node.stopped and node.consensus is not None
    ]


def _ask_all(service, client: ServiceClient, path: str, bodies: list[dict],
             nodes: list[str]) -> list:
    """Send every request (spread over ``nodes``, a bounded number in
    flight) and run the simulation until each has its response."""
    responses: list = [None] * len(bodies)
    pending = iter(range(len(bodies)))
    in_flight = [0]

    def send_next() -> None:
        index = next(pending, None)
        if index is None:
            return
        in_flight[0] += 1

        def on_response(response, index=index) -> None:
            responses[index] = response
            in_flight[0] -= 1
            send_next()

        client.send(nodes[index % len(nodes)], path, bodies[index], {},
                    on_response=on_response)

    for _ in range(IN_FLIGHT):
        send_next()
    service.run_until(lambda: in_flight[0] == 0, timeout=60.0)
    return responses


def _fetch_receipt(auditor: ServiceClient, node_ids: list[str], txid: str) -> Receipt:
    """Ask each node in turn, as a client would after an error."""
    errors = []
    for node_id in node_ids:
        response = auditor.call(node_id, "/node/receipt", {"txid": txid}, {})
        if response.ok:
            return Receipt.from_dict(response.body["receipt"])
        errors.append(response.error or f"status {response.status}")
    raise CCFError("; ".join(errors))


def check_run(service, gen, seed: int, cycles: list[dict]) -> tuple[list[str], int]:
    """Every failed check as one line (empty when all hold), and how many
    acknowledged writes were rolled back by a primary kill."""
    problems: list[str] = []
    live = _live_nodes(service)

    # 1. Every live node has the same Merkle root at the commit seqno.
    commits = {node.consensus.commit_seqno for node in live}
    lasts = {node.ledger.last_seqno for node in live}
    roots = {bytes(node.ledger.root()) for node in live}
    if len(commits) != 1 or lasts != commits or len(roots) != 1:
        problems.append(
            f"ledgers diverge: commit seqnos {sorted(commits)}, "
            f"last seqnos {sorted(lasts)}, {len(roots)} distinct roots"
        )

    auditor = ServiceClient(service.scheduler, service.network, name="bench-audit")
    node_ids = sorted(node.node_id for node in live)

    # 2. Every acknowledged write is Committed. The one exception is CCF's
    # documented one: a primary acknowledges on execution, so when the
    # benchmark kills it, writes after its last committed signature roll
    # back and report Invalid. Those are counted, never silently passed.
    killed_views = {cycle["killed_view"] for cycle in cycles}
    statuses = _ask_all(
        service, auditor, "/node/tx", [{"txid": txid} for _t, txid in gen.acked],
        node_ids,
    )
    committed, rolled_back, lost = [], [], []
    for (_t, txid), response in zip(gen.acked, statuses):
        status = response.body.get("status") if response.ok else None
        if status == "Committed":
            committed.append(txid)
        elif status == "Invalid" and int(txid.split(".")[0]) in killed_views:
            rolled_back.append(txid)
        else:
            lost.append((txid, status))
    if lost:
        problems.append(
            f"{len(lost)} acknowledged writes not Committed, e.g. {lost[0][0]} is {lost[0][1]}"
        )

    # 3. A sample of receipts verifies offline against the service
    # certificate. Nodes that joined from a snapshot hold no entries below
    # its base, so the sample is drawn from entries every live node holds.
    info = auditor.call(node_ids[0], "/node/service_info", {}, {})
    if not info.ok:
        problems.append(f"service_info failed: {info.error}")
    else:
        certificate = Certificate.from_dict(info.body["certificate"])
        held_from = max(node.ledger.base_seqno for node in live)
        held = [txid for txid in committed if int(txid.split(".")[1]) > held_from]
        if not held:
            problems.append("no committed write is held by every live node")
        rng = random.Random(f"perfbench-receipts|{seed}")
        for txid in rng.sample(held, min(RECEIPT_SAMPLE, len(held))):
            try:
                receipt = _fetch_receipt(auditor, node_ids, txid)
                if str(receipt.txid) != txid:
                    raise CCFError(f"receipt is for {receipt.txid}")
                receipt.verify(certificate)
            except CCFError as exc:
                problems.append(f"receipt for {txid} does not verify: {exc}")

    # 4. Every read returned a value some write put at that key.
    if gen.bad_reads:
        key, value = gen.bad_reads[0]
        problems.append(
            f"{len(gen.bad_reads)} reads returned a value never written, "
            f"e.g. key {key} -> {value!r}"
        )
    return problems, len(rolled_back)
