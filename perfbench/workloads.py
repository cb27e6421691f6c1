"""The three workloads: what each server runs, how it is set up and driven,
and how its answers are checked.

``warm-reads``   SS512, asyncio server, one mux connection shared by the
                 load threads, unbatched reads of a hot set smaller than
                 the server's result cache (warmed before timing).
``cold-batches`` SS512, threaded server, pooled HTTP client; each call is
                 a batch of one delegation group, over a working set three
                 times the result cache, cycled so the LRU never hits.
``grant-churn``  TOY, TLS + HMAC tenant auth + durable state dir, open
                 loop of reads, revokes and grants whose every outcome a
                 per-thread model predicts.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from loadgen import Call, Mismatch, closed_loop, open_loop

from repro.serialization.containers import serialize_reencrypted
from repro.service.driver import DELEGATEE_DOMAIN, DELEGATOR_DOMAIN, build_setting
from repro.service.gateway import (
    DelegationNotFoundError,
    GrantRequest,
    ReEncryptionGateway,
    ReEncryptRequest,
    RevokeRequest,
)
from repro.service.wire.aio_client import connect_gateway

ROOT = Path(__file__).resolve().parent.parent
DECRYPT_SAMPLE = 8
# Each revoke phase takes the next REVOKE_DELEGATIONS delegations of a
# seeded order and cycles each of them REVOKE_PASSES times.  Many small
# phases spread the write samples over the whole run: a write's cost on
# a full result cache rises and falls by half as the cache churns.
REVOKE_DELEGATIONS = 8
REVOKE_PASSES = 2


def build_universe(group_name: str, seed: int, **shape):
    """The seeded delegation universe, built client-side before the server starts.

    Returns the :class:`DemoSetting` (party keys and the ciphertext pool,
    ``(patient, type) -> [(ciphertext, message)]``) and its proxy keys
    indexed by ``(patient, type, reader)``.  The setting's own in-process
    gateway only holds the keys; the server receives them as grants.
    """
    setting = build_setting(
        group_name, shard_count=1, seed="perfbench|%s|%s" % (group_name, seed), **shape
    )
    gateway = setting.gateway
    proxy_keys = {
        (key.delegator, key.type_label, key.delegatee): key
        for name in gateway.shard_names
        for key in gateway.shard_named(name).table
    }
    return setting, proxy_keys


def _timed(latencies: list[float], fn, *args):
    start = time.monotonic()
    result = fn(*args)
    latencies.append((time.monotonic() - start) * 1000.0)
    return result


def _split(items: list, n_threads: int) -> list[list]:
    return [items[index::n_threads] for index in range(n_threads)]


def _parallel(chunks: list[list], fn) -> None:
    """Run ``fn(item)`` over each chunk on its own thread; re-raise the first error."""
    errors: list[BaseException] = []

    def target(chunk):
        try:
            for item in chunk:
                fn(item)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(chunk,)) for chunk in chunks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _read_request(ciphertext, reader: str) -> ReEncryptRequest:
    return ReEncryptRequest(
        tenant=ciphertext.identity,
        ciphertext=ciphertext,
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=reader,
    )


def _revoke_request(patient: str, type_label: str, reader: str) -> RevokeRequest:
    return RevokeRequest(
        tenant=patient,
        delegator_domain=DELEGATOR_DOMAIN,
        delegator=patient,
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=reader,
        type_label=type_label,
    )


class Workload:
    """Shared shape: seeded inputs, a server, a setup phase, a timed window.

    ``results`` collects ``(pair, reader, reencrypted)`` for every answer
    the window returned; :meth:`check` byte-compares each with the first
    answer seen for its pair and decrypts a seeded sample.  ``write_ms``
    holds, per kind, one list of grant or revoke latencies per round.
    """

    name = ""
    group_name = ""

    def __init__(self, seed: int, workdir: Path, n_threads: int):
        self.seed = seed
        self.workdir = workdir
        self.n_threads = n_threads
        self.write_ms: dict[str, list[list[float]]] = {"grant": [], "revoke": []}
        self._revoked = 0
        self.mismatches: list[str] = []
        self.results: list[tuple] = []
        self._reference: dict = {}
        self._results_lock = threading.Lock()

    # -- inputs and server ----------------------------------------------

    def generate(self) -> None:
        raise NotImplementedError

    def serve_args(self, setup_dir: Path) -> list[str]:
        raise NotImplementedError

    def connect(self, url: str):
        return connect_gateway(url, self.setting.group, pool_size=self.n_threads)

    # -- phases ------------------------------------------------------------

    def grant_all(self, client) -> None:
        keys = list(self.proxy_keys.items())

        def grant(entry):
            (patient, _type, _reader), key = entry
            client.grant(GrantRequest(tenant=patient, proxy_key=key))

        _parallel(_split(keys, self.n_threads), grant)

    def setup(self, client) -> None:
        raise NotImplementedError

    def settle(self, client) -> None:
        """Untimed, on the measured server only: reach the state the windows measure."""

    def window(self, client, seconds: float, server, recorder=None):
        raise NotImplementedError

    def revoke_phase(self, client) -> None:
        """After each round of an untraced run: revoke, check refusal, re-grant.

        It runs one call at a time between two read windows, so its grant
        and revoke samples spread over the run without mixing with reads.
        """

    def final_check(self, client) -> None:
        """Untimed, after the window: checks that need the live server."""

    def _revoke_cycle(self, client, read) -> list[tuple]:
        """Revoke the next delegations, check a read is refused, re-grant them.

        Returns the delegations it cycled; their latencies are one round
        of ``write_ms``.
        """
        order = random.Random("revoke|%s" % self.seed).sample(
            sorted(self.proxy_keys), len(self.proxy_keys)
        )
        delegations = [
            order[(self._revoked + offset) % len(order)] for offset in range(REVOKE_DELEGATIONS)
        ]
        self._revoked += REVOKE_DELEGATIONS
        grant_ms: list[float] = []
        revoke_ms: list[float] = []
        for _ in range(REVOKE_PASSES):
            for delegation in delegations:
                _timed(revoke_ms, client.revoke, _revoke_request(*delegation))
                try:
                    read(delegation)
                except DelegationNotFoundError:
                    pass
                else:
                    self.mismatches.append("read after revoke of %r succeeded" % (delegation,))
                key = self.proxy_keys[delegation]
                _timed(grant_ms, client.grant, GrantRequest(tenant=delegation[0], proxy_key=key))
        self.write_ms["grant"].append(grant_ms)
        self.write_ms["revoke"].append(revoke_ms)
        return delegations

    # -- correctness -------------------------------------------------------

    def _keep(self, pair, reader: str, reencrypted) -> None:
        with self._results_lock:
            self.results.append((pair, reader, reencrypted))

    def _expect_bytes(self, pair, reencrypted, what: str) -> None:
        """The first answer for ``pair`` is the reference for every later one."""
        data = serialize_reencrypted(self.setting.group, reencrypted)
        with self._results_lock:
            reference = self._reference.setdefault(pair, data)
        if data != reference:
            self.mismatches.append("%s: %r differs from its first answer" % (what, pair))

    def _record_of(self, pair):
        """``(ciphertext, message)`` of the record a result pair names."""
        patient, type_label, index = pair[0]
        return self.setting.pool[(patient, type_label)][index]

    def check(self) -> None:
        for pair, reader, reencrypted in self.results:
            if reencrypted.delegatee != reader:
                self.mismatches.append("answer for %r addressed to %r" % (pair, reencrypted.delegatee))
                continue
            self._expect_bytes(pair, reencrypted, "repeated result")
        if not self.results:
            return
        rng = random.Random("sample|%s|%s" % (self.name, self.seed))
        for pair, reader, reencrypted in rng.sample(
            self.results, min(DECRYPT_SAMPLE, len(self.results))
        ):
            _ciphertext, message = self._record_of(pair)
            key = self.setting.delegatee_keys[reader]
            if self.setting.scheme.decrypt_reencrypted(reencrypted, key) != message:
                self.mismatches.append("reader %s cannot decrypt %r" % (reader, pair))


class WarmReads(Workload):
    name = "warm-reads"
    group_name = "SS512"
    # 4 patients x 2 types x 4 records x 4 readers = 128 hot pairs, well
    # under the 1024-entry result cache, over 32 delegations.
    shape = dict(n_patients=4, n_types=2, n_delegatees=4, ciphertexts_per_pair=4)

    def generate(self) -> None:
        self.setting, self.proxy_keys = build_universe(self.group_name, self.seed, **self.shape)
        self.records = [record for entries in self.setting.pool.values() for record in entries]
        self.pairs = [
            (index, reader)
            for index in range(len(self.records))
            for reader in self.setting.delegatees
        ]
        self._rngs = [
            random.Random("warm|%s|%d" % (self.seed, index)) for index in range(self.n_threads)
        ]

    def serve_args(self, setup_dir: Path) -> list[str]:
        return ["--http", "0", "--async", "--group", self.group_name]

    def _record_of(self, pair):
        return self.records[pair[0]]

    def _read(self, client, pair):
        index, reader = pair
        response = client.reencrypt(_read_request(self.records[index][0], reader))
        return response.ciphertext

    def setup(self, client) -> None:
        self.grant_all(client)
        self._warm(client, self.pairs)

    def _warm(self, client, pairs: list) -> None:
        def warm(pair):
            self._expect_bytes(pair, self._read(client, pair), "warm-up result")

        _parallel(_split(pairs, self.n_threads), warm)

    def window(self, client, seconds: float, server, recorder=None):
        def next_call(index: int) -> Call:
            pair = self._rngs[index].choice(self.pairs)

            def run():
                self._keep(pair, pair[1], self._read(client, pair))

            return Call("read", 1, run)

        return closed_loop(self.n_threads, seconds, next_call, server, recorder)

    def _delegation(self, pair) -> tuple:
        index, reader = pair
        ciphertext = self.records[index][0]
        return (ciphertext.identity, ciphertext.type_label, reader)

    def revoke_phase(self, client) -> None:
        """Cycle the next delegations, then warm their part of the hot set again."""
        first = {}
        for pair in self.pairs:
            first.setdefault(self._delegation(pair), pair)
        cycled = set(self._revoke_cycle(client, lambda d: self._read(client, first[d])))
        self._warm(client, [pair for pair in self.pairs if self._delegation(pair) in cycled])


class ColdBatches(Workload):
    name = "cold-batches"
    group_name = "SS512"
    batch_size = 2
    # 2 patients x 2 types x 48 records x 16 readers = 3072 distinct
    # (ciphertext, reader) pairs, three times the result cache.
    shape = dict(n_patients=2, n_types=2, n_delegatees=16, ciphertexts_per_pair=48)

    def generate(self) -> None:
        self.setting, self.proxy_keys = build_universe(self.group_name, self.seed, **self.shape)
        setting = self.setting
        # One full cycle: round r takes records [k*r, k*r + k) of every
        # (patient, type) for every reader, so consecutive calls belong to
        # different delegation groups and no pair repeats within a cycle.
        self.cycle = [
            (patient, type_label, reader, tuple(range(start, start + self.batch_size)))
            for start in range(0, self.shape["ciphertexts_per_pair"], self.batch_size)
            for (patient, type_label) in setting.pool
            for reader in setting.delegatees
        ]
        self.groups_per_round = len(setting.pool) * len(setting.delegatees)
        self._position = 0
        self._lock = threading.Lock()

    def serve_args(self, setup_dir: Path) -> list[str]:
        return ["--http", "0", "--group", self.group_name]

    def _batch(self, client, entry):
        patient, type_label, reader, indices = entry
        records = self.setting.pool[(patient, type_label)]
        responses = client.reencrypt_batch([_read_request(records[i][0], reader) for i in indices])
        if len(responses) != len(indices):
            raise Mismatch("batch of %d returned %d answers" % (len(indices), len(responses)))
        return [
            ((patient, type_label, i), reader, response.ciphertext)
            for i, response in zip(indices, responses)
        ]

    def _next(self):
        with self._lock:
            entry = self.cycle[self._position % len(self.cycle)]
            self._position += 1
        return entry

    def setup(self, client) -> None:
        """Grant every key, then run the first round: one call per group."""
        self.grant_all(client)
        self._position = 0
        warm = [self._next() for _ in range(self.groups_per_round)]

        def run(entry):
            for pair, reader, reencrypted in self._batch(client, entry):
                self._expect_bytes((pair, reader), reencrypted, "warm-up result")

        _parallel(_split(warm, self.n_threads), run)

    def settle(self, client) -> None:
        """Fill the result cache, then replace every entry once more.

        A write scans the whole result cache for the delegation's entries,
        so grant and revoke latency grows with the cache until it is full.
        It also runs slower, by up to half, until the entries of the first
        fill have been evicted; measured from a cache filled only once,
        the write medians of five seeds spread three times as far.
        """
        fill_calls = 2 * ReEncryptionGateway.result_cache_size // self.batch_size
        fill = [self._next() for _ in range(fill_calls)]

        def run(entry):
            for pair, reader, reencrypted in self._batch(client, entry):
                self._expect_bytes((pair, reader), reencrypted, "fill result")

        _parallel(_split(fill, self.n_threads), run)

    def window(self, client, seconds: float, server, recorder=None):
        def next_call(index: int) -> Call:
            entry = self._next()

            def run():
                for pair, reader, reencrypted in self._batch(client, entry):
                    self._keep((pair, reader), reader, reencrypted)

            return Call("batch", self.batch_size, run)

        return closed_loop(self.n_threads, seconds, next_call, server, recorder)

    def revoke_phase(self, client) -> None:
        """Cycle the next delegations (one group each).

        Nothing is re-read here, so no result enters the cache; the window
        reads every group again on its next cycle, and :meth:`check`
        compares those answers with the ones before the re-grant.
        """
        self._revoke_cycle(
            client,
            lambda delegation: self._batch(client, (*delegation, tuple(range(self.batch_size)))),
        )


class _ChurnModel:
    """One thread's patients and what the gateway must answer for each of them."""

    # Every thread repeats this mix, and a sixteenth of its delegations
    # are revoked at any time, so the share of refused reads is the same
    # for every seed.  Refused reads form a latency class of their own;
    # at 1 in 32 calls it stays clear of the p90 (at 1 in 8 the p90 of a
    # run flipped between the two classes from seed to seed).
    PATTERN = ("read", "revoke", "read", "grant")
    REVOKED_SHARE = 16

    def __init__(self, keys: list[tuple], rng: random.Random):
        self.rng = rng
        self.keys = sorted(keys)
        self.step = 0
        self.granted: set = set()
        self.revoked: set = set()

    def reset(self) -> list[tuple]:
        """All granted but a seeded few, which it returns to be revoked."""
        self.step = 0
        start_revoked = self.rng.sample(self.keys, len(self.keys) // self.REVOKED_SHARE)
        self.revoked = set(start_revoked)
        self.granted = set(self.keys) - self.revoked
        return start_revoked


class GrantChurn(Workload):
    name = "grant-churn"
    group_name = "TOY"
    tenant = "perfbench"
    # Offered load in requests per second, summed over the client threads.
    rate = 200.0
    shape = dict(n_patients=16, n_types=2, n_delegatees=4, ciphertexts_per_pair=2)

    def generate(self) -> None:
        self.setting, self.proxy_keys = build_universe(self.group_name, self.seed, **self.shape)
        self.secret = hashlib.sha256(b"perfbench-tenant|%d" % self.seed).hexdigest()
        self.cert = self.workdir / "dev-cert.pem"
        self.key = self.workdir / "dev-key.pem"
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_dev_cert.py"), "--out", str(self.workdir)],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        self.tenant_config = self.workdir / "tenants.json"
        self.tenant_config.write_text(
            json.dumps(
                {"version": 1, "tenants": {self.tenant: {"secret": self.secret, "roles": ["client"]}}}
            )
        )
        # Each thread owns disjoint patients, so its model is exact.
        owned = _split(self.setting.patients, self.n_threads)
        self.models = [
            _ChurnModel(
                [k for k in self.proxy_keys if k[0] in patients],
                random.Random("churn|%s|%d" % (self.seed, index)),
            )
            for index, patients in enumerate(owned)
        ]

    def serve_args(self, setup_dir: Path) -> list[str]:
        return [
            "--http", "0", "--group", self.group_name,
            "--tls-cert", str(self.cert), "--tls-key", str(self.key),
            "--tenant-config", str(self.tenant_config),
            "--state-dir", str(setup_dir / "state"),
        ]

    def connect(self, url: str):
        return connect_gateway(
            url,
            self.setting.group,
            pool_size=self.n_threads,
            tenant=self.tenant,
            secret=self.secret,
            tls_ca=str(self.cert),
        )

    def setup(self, client) -> None:
        """Grant every delegation, warm up, then revoke a few of them.

        Grants and revokes are timed in the window, not here.
        """
        self.grant_all(client)
        warm = [
            (records[0][0], self.setting.delegatees[0])
            for records in self.setting.pool.values()
        ]
        _parallel(
            _split(warm, self.n_threads), lambda entry: client.reencrypt(_read_request(*entry))
        )

        def revoke(delegation):
            if not client.revoke(_revoke_request(*delegation)).removed:
                self.mismatches.append("setup revoke of %r removed nothing" % (delegation,))

        _parallel([model.reset() for model in self.models], revoke)

    def _plan(self, client, model: _ChurnModel) -> Call:
        kind = model.PATTERN[model.step % len(model.PATTERN)]
        model.step += 1
        pool = {"revoke": model.granted, "grant": model.revoked}.get(kind)
        if not pool:
            # A read, or a write whose candidates an unexpected failure
            # took out of play.
            kind = "read"
        if kind == "read":
            delegation = model.rng.choice(sorted(model.granted | model.revoked))
            patient, type_label, reader = delegation
            index = model.rng.randrange(self.shape["ciphertexts_per_pair"])
            ciphertext, _message = self.setting.pool[(patient, type_label)][index]
            expect_ok = delegation in model.granted

            def run():
                try:
                    response = client.reencrypt(_read_request(ciphertext, reader))
                except DelegationNotFoundError:
                    if expect_ok:
                        raise Mismatch("granted %r was refused" % (delegation,)) from None
                    return
                if not expect_ok:
                    raise Mismatch("revoked %r was served" % (delegation,))
                self._keep(((patient, type_label, index), reader), reader, response.ciphertext)

            return Call("read", 1, run)
        delegation = model.rng.choice(sorted(pool))
        # Until the answer arrives the state is unknown: take the
        # delegation out of play, and put it back only on a checked answer.
        pool.discard(delegation)
        patient, type_label, reader = delegation

        def run():
            if kind == "revoke":
                response = client.revoke(_revoke_request(patient, type_label, reader))
                if not response.removed:
                    raise Mismatch("revoke of granted %r removed nothing" % (delegation,))
                model.revoked.add(delegation)
            else:
                client.grant(GrantRequest(tenant=patient, proxy_key=self.proxy_keys[delegation]))
                model.granted.add(delegation)

        return Call(kind, 1, run)

    def window(self, client, seconds: float, server, recorder=None):
        def next_call(index: int) -> Call:
            return self._plan(client, self.models[index])

        window = open_loop(
            self.n_threads, seconds, self.rate / self.n_threads, next_call, server, recorder
        )
        for kind, rounds in self.write_ms.items():
            rounds.append(window.by_kind_ms.get(kind, []))
        return window

    def final_check(self, client) -> None:
        """Every delegation still in play must answer as its model says."""
        for model in self.models:
            for delegation in model.keys:
                patient, type_label, reader = delegation
                ciphertext, _message = self.setting.pool[(patient, type_label)][0]
                try:
                    client.reencrypt(_read_request(ciphertext, reader))
                    served = True
                except DelegationNotFoundError:
                    served = False
                if delegation in model.granted and not served:
                    self.mismatches.append("final read of granted %r refused" % (delegation,))
                elif delegation in model.revoked and served:
                    self.mismatches.append("final read of revoked %r served" % (delegation,))


WORKLOADS = {cls.name: cls for cls in (WarmReads, ColdBatches, GrantChurn)}
