#!/usr/bin/env python
"""CI chaos test for the fault-tolerant federated transport.

Usage::

    python scripts/chaos_smoke.py [N_POINTS] [--trace TRACE.jsonl]

Runs three failure scenarios against *real* collector processes
(``repro collector-serve`` subprocesses speaking the framed TCP protocol)
and fails loudly unless the fault-tolerance contract holds:

1. **Retriable chaos**: a seeded :class:`~repro.federated.FaultInjector`
   drops, delays, duplicates, and corrupts frames on every round; the fit
   must still produce a release **bit-identical** to the in-process
   federated fit (and hence to the centralized engine).
2. **Kill a collector**: shard 1's process is SIGKILLed mid-fit; the
   coordinator must abort the round with a typed error *naming the shard*
   and roll back every budget spend (an aborted fit releases nothing and
   spends nothing).
3. **Kill and resume the coordinator**: the coordinator "crashes" between
   a committed round and the next (the widest window), its sockets die,
   and a fresh coordinator ``--resume``\\ s from the checkpoint against
   the same still-running collectors.  The resumed release must be
   bit-identical, with exactly one spend per ledger label and exactly one
   committed entry per round — a double-spend here is a privacy bug.

Exits non-zero on any deviation.

With ``--trace PATH`` the whole run executes under an enabled tracer and
the spans (federated rounds, per-collector calls, retries, accountant
spends) are exported as JSON-lines on exit — even when a scenario fails —
so CI can upload the trace as a workflow artifact.  Render it with
``repro trace PATH --chrome OUT.json``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

N_SHARDS = 3
EPSILON = 1.0
SEED = 7


def _collector_command() -> list[str]:
    if shutil.which("repro"):
        return ["repro"]
    return [
        sys.executable,
        "-c",
        "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
    ]


def _spawn_collectors(n_points: int) -> tuple[list, list[tuple[str, int]]]:
    """One ``repro collector-serve`` process per shard, READY-synced."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    command = _collector_command()
    procs, addresses = [], []
    try:
        for shard_id in range(N_SHARDS):
            procs.append(
                subprocess.Popen(
                    command
                    + [
                        "collector-serve",
                        "--dataset", "gowalla",
                        "--n", str(n_points),
                        "--seed", str(SEED),
                        "--shard-id", str(shard_id),
                        "--n-shards", str(N_SHARDS),
                        "--port", "0",
                    ],
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                    env=env,
                )
            )
        for shard_id, proc in enumerate(procs):
            line = proc.stdout.readline().strip()
            if not line.startswith("READY "):
                raise RuntimeError(f"collector {shard_id} failed: {line!r}")
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            addresses.append(("127.0.0.1", int(fields["port"])))
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    return procs, addresses


def _reap(procs: list) -> None:
    for proc in procs:
        proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    trace_path = None
    if "--trace" in args:
        at = args.index("--trace")
        if at + 1 >= len(args):
            print("--trace requires an output path")
            return 2
        trace_path = args[at + 1]
        del args[at : at + 2]
    n_points = int(args[0]) if args else 3000

    from repro import telemetry

    tracer = telemetry.enable() if trace_path else None
    try:
        return _scenarios(n_points)
    finally:
        # Export whatever was traced even when a scenario fails, so CI
        # can upload the trace artifact from the failing run too.
        if tracer is not None:
            telemetry.disable()
            n_spans = tracer.export_jsonl(trace_path)
            print(f"trace: wrote {n_spans} span(s) to {trace_path}")


def _scenarios(n_points: int) -> int:
    from repro import from_spec
    from repro.datasets.spatial import gowallalike
    from repro.federated import (
        CollectorCrashError,
        CollectorTimeoutError,
        FaultInjector,
        FaultPlan,
        FederatedPrivTree,
        FitCheckpoint,
        InjectedCoordinatorCrash,
        ShardCollector,
        connect_collectors,
        shard_dataset,
    )
    from repro.federated.transport import RetryPolicy
    from repro.mechanisms import PrivacyAccountant
    from repro.spatial.serialize import tree_to_dict

    data = gowallalike(n_points, rng=SEED)
    shards = shard_dataset(data, N_SHARDS)
    reference = FederatedPrivTree(
        [ShardCollector(i, N_SHARDS, s) for i, s in enumerate(shards)]
    ).fit_histogram(EPSILON, rng=SEED)
    central = from_spec("privtree", epsilon=EPSILON).fit(data, rng=SEED).tree
    if tree_to_dict(reference) != tree_to_dict(central):
        print("FAIL: in-process federated fit deviates from centralized")
        return 1
    want = tree_to_dict(reference)

    # -- 1: retriable chaos on every round -----------------------------
    procs, addresses = _spawn_collectors(n_points)
    try:
        injector = FaultInjector(
            FaultPlan(drop=0.1, delay=0.15, duplicate=0.15, corrupt=0.05,
                      delay_s=0.001),
            seed=SEED,
        )
        retry = RetryPolicy(
            attempts=6, timeout_s=5.0, base_backoff_s=0.02,
            max_backoff_s=0.2, deadline_s=60.0,
        )
        clients = connect_collectors(
            addresses, session="chaos-retriable", retry=retry, injector=injector
        )
        tree = FederatedPrivTree(clients).fit_histogram(EPSILON, rng=SEED)
        for client in clients:
            client.finish()
        if tree_to_dict(tree) != want:
            print("FAIL: fit under retriable faults is not bit-identical")
            return 1
        fired = {k: v for k, v in injector.injected.items() if v}
        if not fired:
            print("FAIL: the fault injector never fired; the scenario is vacuous")
            return 1
        print(f"OK: fit under injected faults bit-identical (injected: {fired})")
    finally:
        _reap(procs)

    # -- 2: SIGKILL a collector mid-fit --------------------------------
    procs, addresses = _spawn_collectors(n_points)
    try:
        retry = RetryPolicy(
            attempts=3, timeout_s=1.0, base_backoff_s=0.02,
            max_backoff_s=0.1, deadline_s=8.0,
        )
        clients = connect_collectors(addresses, session="chaos-kill", retry=retry)
        procs[1].kill()
        procs[1].wait(timeout=10)
        accountant = PrivacyAccountant(EPSILON)
        try:
            FederatedPrivTree(clients).fit_histogram(
                EPSILON, rng=SEED, accountant=accountant
            )
            print("FAIL: fit succeeded although shard 1 was SIGKILLed")
            return 1
        except (CollectorCrashError, CollectorTimeoutError) as exc:
            if exc.shard_id != 1 or "shard 1" not in str(exc):
                print(f"FAIL: error does not name the dead shard: {exc}")
                return 1
        if accountant.ledger:
            print(f"FAIL: aborted fit left spends behind: {accountant.ledger}")
            return 1
        print("OK: killed collector -> typed abort naming shard 1, "
              "zero budget spent")
    finally:
        _reap(procs)

    # -- 3: kill the coordinator, resume from the checkpoint -----------
    procs, addresses = _spawn_collectors(n_points)
    checkpoint_dir = tempfile.mkdtemp(prefix="chaos_ckpt_")
    try:
        checkpoint = FitCheckpoint(os.path.join(checkpoint_dir, "fit.json"))
        injector = FaultInjector(
            FaultPlan(crash_coordinator_at_round=4), seed=SEED
        )
        clients = connect_collectors(addresses, session="chaos-resume")
        accountant = PrivacyAccountant(EPSILON)
        t0 = time.monotonic()
        try:
            FederatedPrivTree(clients).fit_histogram(
                EPSILON, rng=SEED, accountant=accountant,
                checkpoint=checkpoint, fault_injector=injector,
            )
            print("FAIL: the injected coordinator crash never fired")
            return 1
        except InjectedCoordinatorCrash:
            pass
        for client in clients:
            client.channel.close()  # the dead coordinator's sockets vanish
        if accountant.ledger:
            print(f"FAIL: crashed fit left in-memory spends: {accountant.ledger}")
            return 1

        clients = connect_collectors(addresses, session="chaos-resume")
        resumed_accountant = PrivacyAccountant(EPSILON)
        tree = FederatedPrivTree(clients).fit_histogram(
            EPSILON, rng=SEED, accountant=resumed_accountant,
            checkpoint=checkpoint, resume=True,
        )
        for client in clients:
            client.finish()
        if tree_to_dict(tree) != want:
            print("FAIL: resumed fit is not bit-identical to uninterrupted fit")
            return 1
        labels = [label for label, _ in resumed_accountant.ledger]
        if labels != ["privtree/tree structure", "privtree/leaf counts"]:
            print(f"FAIL: resumed ledger has wrong/duplicated spends: {labels}")
            return 1
        if abs(resumed_accountant.spent - EPSILON) > 1e-9:
            print(f"FAIL: resumed fit spent {resumed_accountant.spent}, "
                  f"expected {EPSILON}")
            return 1
        state = checkpoint.load()
        rounds = [entry["round"] for entry in state["round_log"]]
        if len(rounds) != len(set(rounds)) or rounds != sorted(rounds):
            print(f"FAIL: round log shows re-committed rounds: {rounds}")
            return 1
        if state["phase"] != "done":
            print(f"FAIL: checkpoint phase is {state['phase']!r}, not 'done'")
            return 1
        print(f"OK: coordinator killed at round 4 and resumed "
              f"({time.monotonic() - t0:.1f}s): release bit-identical, one "
              f"spend per label, {len(rounds)} rounds each committed once")
    finally:
        _reap(procs)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)

    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
