"""The four serve workloads and the seeded inputs each one fetches.

A workload fixes the load shape (closed loop with one client per
allowed CPU, or open loop at a constant Poisson rate), the documents
the server is launched with, and the request mix.  The workload seed
generates every input: the arrival schedule, the synthetic corpus,
the popularity and query draws, and the chaos channel's decisions.
The rates are constants so the parent commit and a change see the
same offered load.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import perfstats

#: Seed used when none is given, and the seed kept out of development
#: for confirming a claim on inputs no one tuned against.
DEFAULT_SEED = 1
HOLDOUT_SEED = 20000806

#: corpus-browse: documents, popularity skew, share of query requests.
CORPUS_DOCS = 200
CORPUS_ZIPF = 1.0
QUERY_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float            # open-loop fetches/s; 0 means closed loop
    packet_size: int       # server default and client request
    chaos: Optional[str]   # ChaosProxy channel-model spec, or None
    corpus: bool           # synthetic corpus instead of the bundled paper
    use_cache: bool        # client PacketCache (resume across rounds)

    @property
    def closed(self) -> bool:
        return self.rate == 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hot-paper", 0, 256, None, False, False),
        Workload("small-frames", 0, 64, None, False, False),
        Workload("lossy-link", 50.0, 256, "gilbert:alpha=0.25,burst=6", False, True),
        Workload("corpus-browse", 60.0, 256, None, True, False),
    )
}


class Request(NamedTuple):
    """One fetch: when it is due (open loop), what, and with which prep."""

    offset: float          # seconds after the phase origin (0 in closed loops)
    document: str
    prep: object           # repro.prep.PrepRequest


class Inputs(NamedTuple):
    paths: List[Path]                  # documents the server is launched with
    server_flags: List[str]            # extra `net serve` flags
    requests: List[Request]            # closed loop: one entry, repeated
    expected: Dict[Tuple[str, object], str]   # (document, prep) → payload sha256


def build_inputs(workload: Workload, seed: int, phases: Tuple[float, float], work: Path) -> Inputs:
    """Generate *workload*'s inputs for the (warm-up, window) *phases*, in seconds."""
    from repro.data import draft_paper_path
    from repro.prep import PrepRequest

    default = PrepRequest(packet_size=workload.packet_size)
    flags = ["--packet-size", str(workload.packet_size)]
    if not workload.corpus:
        paths = [Path(draft_paper_path())]
        document = paths[0].stem
        if workload.closed:
            requests = [Request(0.0, document, default)]
        else:
            offsets = perfstats.poisson_schedule(workload.rate, phases, seed)
            requests = [Request(t, document, default) for t in offsets]
    else:
        paths, topics = write_corpus(seed, work / f"corpus-{seed}")
        requests = corpus_plan(
            seed, perfstats.poisson_schedule(workload.rate, phases, seed), paths, topics, default
        )
    keys = sorted({(r.document, r.prep) for r in requests}, key=repr)
    return Inputs(paths, flags, requests, reference_digests(paths, keys))


def write_corpus(seed: int, directory: Path) -> Tuple[List[Path], List[str]]:
    """Write the seeded corpus as XML files; returns (paths, topic queries)."""
    from repro.simulation.textgen import CorpusGenerator

    generator = CorpusGenerator(seed=seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for document, (xml, _topic) in generator.corpus(CORPUS_DOCS).items():
        path = directory / f"{document}.xml"
        path.write_text(xml, encoding="utf-8")
        paths.append(path)
    topics = [generator.topic_query(t) for t in range(len(generator.topics))]
    return paths, topics


def corpus_plan(
    seed: int, offsets: List[float], paths: List[Path], topics: List[str], default
) -> List[Request]:
    """Zipf-popular documents; a :data:`QUERY_SHARE` of requests carry a topic query."""
    rng = random.Random(seed * 1_000_003 + 17)
    order = [path.stem for path in paths]
    rng.shuffle(order)  # which document is the most popular depends on the seed
    ranks = perfstats.zipf_draws(len(order), CORPUS_ZIPF, len(offsets), rng)
    requests = []
    for offset, rank in zip(offsets, ranks):
        prep = default
        if rng.random() < QUERY_SHARE:
            prep = default.replace(query=rng.choice(topics))
        requests.append(Request(offset, order[rank], prep))
    return requests


def reference_digests(paths: List[Path], keys) -> Dict[Tuple[str, object], str]:
    """sha256 of each (document, prep) payload, rebuilt in-process.

    The reference cooks the document with a private
    :class:`~repro.prep.PreparationService` and reassembles it from the
    clear-text packets with ``CookedDocument.reassemble``; a fetch is
    correct only if the bytes it decoded over the socket hash the same.
    """
    from repro.prep import PreparationService

    service = PreparationService()
    for path in paths:
        service.add_path(path)
    digests = {}
    for document, prep in keys:
        cooked = service.prepare(document, prep).cooked
        payload = cooked.reassemble({i: cooked.cooked[i] for i in range(cooked.m)})
        digests[(document, prep)] = hashlib.sha256(payload).hexdigest()
    return digests
