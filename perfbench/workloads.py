"""The three workloads: generated inputs, server topology, traffic, checks.

Each workload class has three sides:

* inputs, made only from the seed (``server_config`` carries them to the
  server process, so the program sees generated inputs and nothing else);
* ``serve`` — runs in the server host process and builds the deployed
  topology over those inputs;
* ``Traffic`` — runs in the load generator: yields requests, checks each
  response against the generator's own model, and checks the final state.

Why each workload exists, and the numbers below, are in ``README.md``.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import string
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Request:
    """One generated request: ``kind`` is ``"write"`` or ``"read"``."""

    kind: str
    call: str  # AsyncServiceClient method name
    args: tuple
    doc: str
    tag: object = None  # what the check needs to know about this request


@dataclass
class Outcome:
    """What the final-state check needs from the run as a whole."""

    acked: list = field(default_factory=list)  # (request, response)
    unknown: int = 0  # writes that failed, so may or may not have applied


def _word(rng: random.Random, size: int) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=size))


def _service(wal_path: str):
    """A service with the default configuration (group commit of 64)."""
    from repro.service import ServiceConfig, UpdateService

    return UpdateService(ServiceConfig(wal_path=wal_path))


def _serve_one(service, extra: dict):
    """Recover, start, and front ``service`` with one asyncio server."""
    from repro.service import AsyncNetServer

    service.recover()
    service.start()
    server = AsyncNetServer(service, own_service=True).start()
    return server.address, server.close, extra


def _recover_offline(service, names) -> dict[str, str]:
    """Recover a freshly hosted service from its WAL and checkpoints and
    serialize each document, without starting it."""
    service.recover()
    texts = {name: service.host(name).serialize() for name in names}
    service.close()
    return texts


def _host_documents(service, texts: dict[str, str], names) -> None:
    from repro.xmlmodel.parser import XmlParser

    for name in names:
        service.host_document(name, XmlParser(texts[name]).parse())


def _serve_sharded(
    texts: dict[str, str], directory: str, trace: bool, shards: int, **options
):
    """The ``serve --shards N`` topology: a ``ShardCluster`` router in
    this process over ``shards`` spawned workers."""
    from repro.service import ShardCluster, supervise

    if trace:
        from perfbench.layers import traced_worker_main

        supervise.worker_main = traced_worker_main
    cluster = ShardCluster(directory, texts, shards, **options).start()
    return cluster.address, cluster.close, {}


def _recover_sharded(directory: str, texts: dict[str, str], shards: int) -> dict[str, str]:
    """Replay each shard's checkpoint + WAL in a fresh service."""
    from repro.service import ShardMap

    shard_map = ShardMap(shards)
    recovered = {}
    for shard in range(shards):
        names = [name for name in sorted(texts) if shard_map.shard_of(name) == shard]
        service = _service(os.path.join(directory, f"shard-{shard}", "shard.wal"))
        _host_documents(service, texts, names)
        recovered.update(_recover_offline(service, names))
    return recovered


def _balanced_names(pattern: str, shards: int, per_shard: int) -> list[list[str]]:
    """The first ``per_shard`` names of ``pattern.format(index)`` that
    the shard map places on each shard, as one list per shard."""
    from repro.service import ShardMap

    shard_map = ShardMap(shards)
    placed: list[list[str]] = [[] for _ in range(shards)]
    for index in itertools.count():
        name = pattern.format(index)
        names = placed[shard_map.shard_of(name)]
        if len(names) < per_shard:
            names.append(name)
        if all(len(names) == per_shard for names in placed):
            return placed


# ----------------------------------------------------------------------
# feed: raw delta appends through the shard router
# ----------------------------------------------------------------------
class Feed:
    name = "feed"
    loop = "closed"
    documents = 16
    entries = 1000
    shards = 2
    streams = 16  # closed-loop streams over two connections: one per document
    read_frac = 0.08
    checkpoint_every_ops = 12000  # per shard
    limit_ms = 100.0
    prep_ops = 800

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"{seed}:feed:docs")
        self.names = [f"feed-{index:02d}.xml" for index in range(self.documents)]
        self.preload = {
            name: [f"p{doc}-{entry}" for entry in range(self.entries)]
            for doc, name in enumerate(self.names)
        }
        self.texts = {
            name: "<feed>"
            + "".join(
                f'<e m="{marker}">{_word(rng, 24)}</e>' for marker in markers
            )
            + "</feed>"
            for name, markers in self.preload.items()
        }

    def server_config(self) -> dict:
        return {"documents": self.texts}

    @staticmethod
    def serve(config: dict, directory: str, trace: bool):
        return _serve_sharded(
            config["documents"],
            directory,
            trace,
            Feed.shards,
            checkpoint_every_ops=Feed.checkpoint_every_ops,
        )

    def probes(self) -> list[Request]:
        return [Request("read", "query", (name,), name) for name in self.names]

    def traffic(self, ready: dict) -> "FeedTraffic":
        return FeedTraffic(self)


class FeedTraffic:
    """Stream ``s`` owns document ``s``: one producer per feed, so a
    checkpoint stall on one shard holds only that shard's streams."""

    def __init__(self, workload: Feed) -> None:
        self.w = workload
        self.rngs: dict[int, random.Random] = {}
        self.counts: Counter = Counter()

    def next(self, stream: int) -> Request:
        from repro.service import DeltaUpdate
        from repro.updates.delta import DeleteNode, InsertNode

        rng = self.rngs.setdefault(
            stream, random.Random(f"{self.w.seed}:feed:stream:{stream}")
        )
        doc = self.w.names[stream]
        if rng.random() < self.w.read_frac:
            return Request("read", "query", (doc,), doc)
        self.counts[stream] += 1
        marker = f"s{stream}-{self.counts[stream]}"
        entry = f'<e m="{marker}">{_word(rng, 24)}</e>'
        op = DeltaUpdate(doc, (InsertNode((), 1 << 30, xml=entry), DeleteNode((0,))))
        return Request("write", "submit_wait", (op,), doc, marker)

    def check_response(self, request: Request, response) -> bool:
        if request.kind == "read":
            return isinstance(response, str) and response.count("<e ") == self.w.entries
        return isinstance(response, int)

    def check_final(self, outcome: Outcome, live: dict[str, str]) -> list[str]:
        """Each document holds exactly its preload size, no marker
        repeats, and (when every write was acked) the content is the
        preload followed by the acked appends in WAL order, trimmed to
        the preload size; otherwise every acked marker that the acked
        appends after it did not trim is present."""
        problems = []
        acked: dict[str, list] = {name: [] for name in self.w.names}
        for request, seq in outcome.acked:
            acked[request.doc].append((seq, request.tag))
        for name in self.w.names:
            markers = re.findall(r'<e m="([^"]+)">', live[name])
            if len(markers) != self.w.entries:
                problems.append(f"{name}: {len(markers)} entries")
            if len(set(markers)) != len(markers):
                problems.append(f"{name}: a marker repeats")
            ordered = [marker for _seq, marker in sorted(acked[name])]
            if outcome.unknown == 0:
                expected = (self.w.preload[name] + ordered)[-self.w.entries :]
                if markers != expected:
                    problems.append(f"{name}: content differs from the acked appends")
            else:
                # A marker survives unless `entries` applied appends
                # follow it; unknown writes may be among them.
                start = len(ordered) - self.w.entries + outcome.unknown
                kept = ordered[max(0, start) :]
                missing = set(kept) - set(markers)
                if missing:
                    problems.append(f"{name}: {len(missing)} acked entries missing")
        return problems

    def recover_offline(self, directory: str) -> dict[str, str]:
        return _recover_sharded(directory, self.w.texts, self.w.shards)


# ----------------------------------------------------------------------
# store: the paper's relational path, open loop
# ----------------------------------------------------------------------
class Store:
    name = "store"
    loop = "open"
    params = (1000, 4, 2)  # SyntheticParams: 1000 n1 subtrees of 15 tuples
    rate = 250.0  # offered ops/s, over a quarter of closed-loop capacity
    read_frac = 0.8
    delete_frac = 0.1  # the rest are copies
    skew = 1.0  # Zipf exponent over the statement vocabulary
    limit_ms = 100.0
    prep_ops = 200
    doc = "synthetic.xml"
    top = "root"  # the synthetic document's top element

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def server_config(self) -> dict:
        return {"params": list(self.params), "seed": self.seed}

    @staticmethod
    def serve(config: dict, directory: str, trace: bool):
        from repro.bench.experiments import build_fixed_store
        from repro.workloads.synthetic import SyntheticParams

        store = build_fixed_store(SyntheticParams(*config["params"], seed=config["seed"]))
        root_id = store.db.query('SELECT id FROM "root"')[0][0]
        n1 = store.db.query('SELECT id, "num" FROM "n1" ORDER BY id')
        service = _service(os.path.join(directory, "store.wal"))
        service.host_store(Store.doc, store)
        return _serve_one(service, {"root": root_id, "n1": n1})

    def probes(self) -> list[Request]:
        statement = (
            f'FOR $x IN document("{self.doc}")/{self.top}/n1[num="-1"] RETURN $x'
        )
        return [Request("read", "query", (self.doc, statement), self.doc)]

    def traffic(self, ready: dict) -> "StoreTraffic":
        return StoreTraffic(self, ready)


class StoreTraffic:
    #: Tuples per n1 subtree, per relation (depth 4, fanout 2).
    SUBTREE = {"n1": 1, "n2": 2, "n3": 4, "n4": 8}

    def __init__(self, workload: Store, ready: dict) -> None:
        self.w = workload
        self.root = ready["root"]
        n1 = [tuple(row) for row in ready["n1"]]
        rng = random.Random(f"{workload.seed}:store:plan")
        # Deletes and copy sources come from disjoint n1 sets, so no
        # copy can race the delete of its source across connections.
        # The delete set (950) covers the prep traffic, the warm-up and
        # a window of up to 35 s at the offered rate.
        self.copy_sources = [row[0] for index, row in enumerate(n1) if index % 20 == 0]
        self.delete_targets = [row[0] for index, row in enumerate(n1) if index % 20]
        rng.shuffle(self.delete_targets)
        nums = [row[1] for row in n1]
        rng.shuffle(nums)
        doc, top = workload.doc, workload.top
        self.vocabulary = [
            f'FOR $x IN document("{doc}")/{top}/n1[num="{num}"] RETURN $x'
            for num in nums
        ] + [
            f'FOR $x IN document("{doc}")/{top}/n1[num="{num}"]/n2 RETURN $x'
            for num in nums
        ]
        self.cumulative = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** workload.skew
                for rank in range(len(self.vocabulary))
            )
        )
        self.rng = random.Random(f"{workload.seed}:store:ops")
        self.initial = {"n1": len(n1), "n2": 2 * len(n1), "n3": 4 * len(n1), "n4": 8 * len(n1)}

    def next(self, stream: int) -> Request:
        from repro.service import SubtreeCopy, SubtreeDelete

        rng = self.rng
        draw = rng.random()
        doc = self.w.doc
        if draw < self.w.read_frac:
            statement = rng.choices(self.vocabulary, cum_weights=self.cumulative)[0]
            return Request("read", "query", (doc, statement), doc, statement)
        if draw < self.w.read_frac + self.w.delete_frac:
            if not self.delete_targets:
                raise RuntimeError("store workload ran out of delete targets")
            op = SubtreeDelete(doc, "n1", (self.delete_targets.pop(),))
            return Request("write", "submit_wait", (op,), doc, "delete")
        source = self.copy_sources[rng.randrange(len(self.copy_sources))]
        op = SubtreeCopy(doc, "n1", (source,), self.root)
        return Request("write", "submit_wait", (op,), doc, "copy")

    def check_response(self, request: Request, response) -> bool:
        if request.kind == "read":
            tag = "<n2" if request.tag.endswith("/n2 RETURN $x") else "<n1"
            return isinstance(response, list) and all(
                isinstance(item, str) and item.startswith(tag) for item in response
            )
        return isinstance(response, int)

    def check_final(self, outcome: Outcome, live: dict[str, str]) -> list[str]:
        """Per-relation row counts equal initial - acked deletes + acked
        copies (counted as elements of the live serialization)."""
        deletes = sum(1 for request, _ in outcome.acked if request.tag == "delete")
        copies = sum(1 for request, _ in outcome.acked if request.tag == "copy")
        text = live[self.w.doc]
        problems = []
        for relation, per_subtree in self.SUBTREE.items():
            expected = self.initial[relation] + per_subtree * (copies - deletes)
            found = len(re.findall(rf"<{relation}[ >]", text))
            if found != expected and outcome.unknown == 0:
                problems.append(f"{relation}: {found} rows, expected {expected}")
        return problems

    def recover_offline(self, directory: str) -> dict[str, str]:
        from repro.bench.experiments import build_fixed_store
        from repro.workloads.synthetic import SyntheticParams

        store = build_fixed_store(SyntheticParams(*self.w.params, seed=self.w.seed))
        service = _service(os.path.join(directory, "store.wal"))
        service.host_store(self.w.doc, store)
        texts = _recover_offline(service, [self.w.doc])
        store.close()
        return texts


# ----------------------------------------------------------------------
# statements: the paper's update language, executed server-side
# ----------------------------------------------------------------------
class Statements:
    name = "statements"
    loop = "closed"
    shards = 2
    streams = 2  # closed-loop streams, one per connection and shard
    docs_per_stream = 4
    books = 60  # five elements each: 301 elements per document
    write_frac = 0.5
    limit_ms = 1000.0
    prep_ops = 60
    years = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Stream s owns docs_per_stream documents, all on one shard, so
        # each shard worker always has streams / shards requests to run.
        streams_per_shard = self.streams // self.shards
        placed = _balanced_names(
            "bib-{}.xml", self.shards, streams_per_shard * self.docs_per_stream
        )
        self.owned = [
            names[slot::streams_per_shard]
            for names in placed
            for slot in range(streams_per_shard)
        ]
        self.names = sorted(name for names in self.owned for name in names)
        rng = random.Random(f"{seed}:statements:docs")
        self.initial: dict[str, list[dict]] = {}
        for doc, name in enumerate(self.names):
            self.initial[name] = [
                self.new_book(rng, f"b{doc}-{index}") for index in range(self.books)
            ]
        self.texts = {name: self.render(books) for name, books in self.initial.items()}

    def new_book(self, rng: random.Random, book_id: str) -> dict:
        return {
            "id": book_id,
            "year": str(1990 + rng.randrange(self.years)),
            "title": "title",
            "text": _word(rng, 12),
            "author": _word(rng, 8),
            "price": str(rng.randrange(5, 95)),
        }

    @staticmethod
    def book_xml(book: dict) -> str:
        return (
            f'<book id="{book["id"]}" year="{book["year"]}">'
            f'<{book["title"]}>{book["text"]}</{book["title"]}>'
            f'<author>{book["author"]}</author><price>{book["price"]}</price>'
            "<note>n</note></book>"
        )

    def render(self, books: list[dict]) -> str:
        return "<bib>" + "".join(self.book_xml(book) for book in books) + "</bib>"

    def server_config(self) -> dict:
        return {"documents": self.texts}

    @staticmethod
    def serve(config: dict, directory: str, trace: bool):
        return _serve_sharded(config["documents"], directory, trace, Statements.shards)

    def probes(self) -> list[Request]:
        return [Request("read", "query", (name,), name) for name in self.names]

    def traffic(self, ready: dict) -> "StatementsTraffic":
        return StatementsTraffic(self)


class StatementsTraffic:
    """Stream ``s`` owns the documents ``workload.owned[s]`` and runs one
    request at a time, so the generator's model of each document is
    exact and every read can be checked against it."""

    def __init__(self, workload: Statements) -> None:
        self.w = workload
        self.books = {
            name: [dict(book) for book in books]
            for name, books in workload.initial.items()
        }
        self.rngs: dict[int, random.Random] = {}
        self.added = Counter()

    def next(self, stream: int) -> Request:
        rng = self.rngs.setdefault(
            stream, random.Random(f"{self.w.seed}:statements:stream:{stream}")
        )
        owned = self.w.owned[stream]
        doc = owned[rng.randrange(len(owned))]
        books = self.books[doc]
        if rng.random() >= self.w.write_frac:
            year = str(1990 + rng.randrange(self.w.years))
            statement = (
                f'FOR $b IN document("{doc}")/bib/book[@year="{year}"] '
                "RETURN $b/@id"
            )
            expected = [book["id"] for book in books if book["year"] == year]
            return Request("read", "query", (doc, statement), doc, expected)
        draw = rng.random()
        if draw < 0.4:
            old = books.pop(0)
            self.added[doc] += 1
            new = self.w.new_book(rng, f"{old['id'].split('-')[0]}-n{self.added[doc]}")
            books.append(new)
            statement = (
                f'FOR $b IN document("{doc}")/bib, $x IN $b/book[@id="{old["id"]}"] '
                f"UPDATE $b {{ DELETE $x, INSERT {self.w.book_xml(new)} }}"
            )
        elif draw < 0.7:
            book = books[rng.randrange(len(books))]
            old_tag = book["title"]
            book["title"] = "heading" if old_tag == "title" else "title"
            statement = (
                f'FOR $b IN document("{doc}")/bib/book[@id="{book["id"]}"], '
                f"$t IN $b/{old_tag} UPDATE $b {{ RENAME $t TO {book['title']} }}"
            )
        else:
            book = books[rng.randrange(len(books))]
            book["price"] = str(rng.randrange(5, 95))
            statement = (
                f'FOR $b IN document("{doc}")/bib/book[@id="{book["id"]}"], '
                f"$p IN $b/price UPDATE $b {{ REPLACE $p WITH "
                f'<price>{book["price"]}</price> }}'
            )
        return Request("write", "execute", (doc, statement), doc, statement)

    def check_response(self, request: Request, response) -> bool:
        if request.kind == "read":
            return response == request.tag
        return isinstance(response, dict) and isinstance(response.get("seq"), int)

    def check_final(self, outcome: Outcome, live: dict[str, str]) -> list[str]:
        """The live serialization equals a sequential replay of the acked
        statements, in WAL order, on an in-memory engine.  Each statement
        touches one document, and a document's statements share its
        shard's WAL, so ordering by (document, seq) is WAL order."""
        from repro.xmlmodel.parser import XmlParser
        from repro.xmlmodel.serializer import serialize
        from repro.xquery.engine import XQueryEngine

        documents = {name: XmlParser(text).parse() for name, text in self.w.texts.items()}
        engine = XQueryEngine(documents)
        for request, response in sorted(
            outcome.acked, key=lambda item: (item[0].doc, item[1]["seq"])
        ):
            engine.execute(request.tag)
        problems = []
        for name, document in documents.items():
            if serialize(document) != live[name] and outcome.unknown == 0:
                problems.append(f"{name}: live text differs from the replay")
        return problems

    def recover_offline(self, directory: str) -> dict[str, str]:
        return _recover_sharded(directory, self.w.texts, self.w.shards)


WORKLOADS = {cls.name: cls for cls in (Feed, Store, Statements)}

