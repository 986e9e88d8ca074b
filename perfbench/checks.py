"""Correctness checks on kernel and service outputs.

Every check compares the program's output against a computation made
here, apart from the program, or against a property the method must
have.  None compares against a stored copy of an earlier output.  A
failed check raises :class:`CheckError` naming the first offence.

The checks run after the timed part of a run, on the outputs of its
last pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from typing import Any, Callable

import numpy as np
from repro.core.datasets import DatasetSize, dataset_params, dataset_seed
from repro.sequence.simulate import random_genome

#: Lowest consensus identity to the window's truth poa may reach.  The
#: windows are 12 reads deep at 8 % error; consensus should recover
#: nearly every base (0.98 is the worst window seen).
POA_IDENTITY_FLOOR = 0.95

#: Length of the exact seed every bsw pair opens with.
BSW_SEED_LEN = 40

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_BASE4 = str.maketrans("ACGT", "0123")


class CheckError(AssertionError):
    """A program output failed a correctness check."""


def _fail(message: str) -> None:
    raise CheckError(message)


def revcomp(seq: str) -> str:
    """Reverse complement of an upper-case ACGT string."""
    return seq.translate(_COMPLEMENT)[::-1]


# -- per-kernel checks ----------------------------------------------------


def check_kmer(workload: Any, output: Any) -> None:
    """kmer-cnt: counts equal a plain ``Counter`` of canonical k-mers.

    Canonical is the lexicographically smaller of a k-mer and its
    reverse complement; with A<C<G<T that is also the smaller 2-bit
    packed value, the key the program's table stores.
    """
    k = workload.kmer_size
    expected: Counter[str] = Counter()
    for read in workload.reads:
        read = read.upper()
        rc, n = revcomp(read), len(read)
        expected.update(
            min(read[i : i + k], rc[n - i - k : n - i]) for i in range(n - k + 1)
        )
    want = {int(kmer.translate(_BASE4), 4): n for kmer, n in expected.items()}
    keys, counts = output.table.occupied()
    got = dict(zip((int(x) for x in keys), (int(c) for c in counts)))
    if len(got) != len(keys):
        _fail("kmer-cnt: a canonical k-mer occupies more than one table slot")
    if got != want:
        wrong = sorted(set(got.items()) ^ set(want.items()))[:3]
        _fail(
            f"kmer-cnt: {len(set(got.items()) ^ set(want.items()))} (k-mer, count) "
            f"pairs differ from a Counter of canonical k-mers, e.g. {wrong}"
        )
    if output.total_kmers != sum(want.values()):
        _fail(
            f"kmer-cnt: total_kmers {output.total_kmers} != "
            f"{sum(want.values())} counted"
        )


def check_grm(workload: Any, output: Any) -> None:
    """grm: matches a dense evaluation of ``G = Z Z^T / S``."""
    x = workload.data.genotypes.astype(np.float64)
    p = workload.data.frequencies.astype(np.float64)
    z = (x - 2.0 * p) / np.sqrt(2.0 * p * (1.0 - p))
    expected = z @ z.T / x.shape[1]
    got = np.asarray(output)
    if got.shape != expected.shape:
        _fail(f"grm: matrix shape {got.shape} != {expected.shape}")
    if not np.allclose(got, expected, rtol=1e-9, atol=1e-9):
        i, j = np.unravel_index(np.argmax(np.abs(got - expected)), got.shape)
        _fail(
            f"grm: G[{i},{j}] = {got[i, j]!r} but Z Z^T / S gives "
            f"{expected[i, j]!r}"
        )


def check_fmi(workload: Any, output: Any, genome: str) -> None:
    """fmi: every seed spells the same bases in the read and the genome.

    ``-`` seeds match the reverse complement of the genome span.
    """
    if len(genome) != workload.genome_len:
        _fail(f"fmi: genome has {len(genome)} bases, workload says {workload.genome_len}")
    if len(output) != len(workload.reads):
        _fail(f"fmi: {len(output)} seed lists for {len(workload.reads)} reads")
    n_seeds = 0
    for read, seeds in zip(workload.reads, output):
        seq = read.sequence.upper()
        for read_start, pos, length, strand in seeds:
            n_seeds += 1
            if length < workload.min_seed_len:
                _fail(f"fmi: {read.name} seed of {length} bases is below the minimum")
            if not (0 <= read_start and read_start + length <= len(seq)):
                _fail(f"fmi: {read.name} seed [{read_start}, +{length}) leaves the read")
            if not (0 <= pos and pos + length <= len(genome)):
                _fail(f"fmi: {read.name} seed at genome {pos} +{length} leaves the genome")
            span = genome[pos : pos + length]
            if strand == "-":
                span = revcomp(span)
            elif strand != "+":
                _fail(f"fmi: {read.name} seed has strand {strand!r}")
            if seq[read_start : read_start + length] != span:
                _fail(
                    f"fmi: {read.name} seed ({read_start}, {pos}, {length}, {strand}) "
                    "spells different bases in the read and the genome"
                )
    if n_seeds == 0:
        _fail("fmi: no seeds at all")


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, one numpy row per character of ``a``."""
    bb = np.frombuffer(b.encode(), dtype=np.uint8)
    cols = np.arange(len(b) + 1)
    prev = cols.copy()
    for i, ch in enumerate(a.encode(), 1):
        diag = prev[:-1] + (bb != ch)
        best = np.minimum(diag, prev[1:] + 1)
        row = np.concatenate(([i], best))
        # insertions chain left to right: row[j] = min_k(row[k] + j - k)
        prev = np.minimum.accumulate(row - cols) + cols
    return int(prev[-1])


def check_poa(workload: Any, output: Any) -> None:
    """poa: consensus identity to each window's truth stays above the floor."""
    if len(output) != len(workload.windows):
        _fail(f"poa: {len(output)} consensus sequences for {len(workload.windows)} windows")
    for i, (consensus, window) in enumerate(zip(output, workload.windows)):
        truth = window.truth.upper()
        identity = 1.0 - edit_distance(consensus.upper(), truth) / len(truth)
        if identity < POA_IDENTITY_FLOOR:
            _fail(
                f"poa: window {i} consensus identity {identity:.3f} is below "
                f"{POA_IDENTITY_FLOOR}"
            )


_QUERY_AND_REF = {"M", "=", "X"}
_QUERY_ONLY = {"I", "S"}
_REF_ONLY = {"D", "N"}
_DROP_ACGT = str.maketrans("", "", "ACGT")


def _cigar_ops(text: str) -> list[tuple[str, int]]:
    ops = []
    number = ""
    for ch in text:
        if ch.isdigit():
            number += ch
        else:
            ops.append((ch, int(number)))
            number = ""
    return ops


def naive_depth(records: list[Any], start: int, end: int) -> np.ndarray:
    """Per-position depth over ``[start, end)``: aligned A/C/G/T bases
    plus deletions, counted from each record's CIGAR string."""
    diff = np.zeros(end - start + 1, dtype=np.int64)
    for rec in records:
        if rec.is_unmapped:
            continue
        ref, q = rec.pos, 0
        seq = rec.seq.upper()
        for op, length in _cigar_ops(str(rec.cigar)):
            if op in _QUERY_AND_REF or op == "D":
                lo, hi = max(ref, start), min(ref + length, end)
                if hi > lo:
                    diff[lo - start] += 1
                    diff[hi - start] -= 1
                    segment = "" if op == "D" else seq[q + lo - ref : q + hi - ref]
                    if segment.translate(_DROP_ACGT):  # N adds no depth
                        for j, base in enumerate(segment):
                            if base not in "ACGT":
                                diff[lo - start + j] -= 1
                                diff[lo - start + j + 1] += 1
            if op in _QUERY_AND_REF or op in _QUERY_ONLY:
                q += length
            if op in _QUERY_AND_REF or op in _REF_ONLY:
                ref += length
    return np.cumsum(diff)[:-1]


def check_pileup(workload: Any, output: Any) -> None:
    """pileup: per-position depth equals a naive count over the records."""
    if len(output) != len(workload.tasks):
        _fail(f"pileup: {len(output)} piles for {len(workload.tasks)} regions")
    for pile, (region, records) in zip(output, workload.tasks):
        expected = naive_depth(records, region.start, region.end)
        got = np.asarray(pile.depth())
        if got.shape != expected.shape or not np.array_equal(got, expected):
            bad = np.nonzero(got != expected)[0] if got.shape == expected.shape else [0]
            pos = int(bad[0])
            _fail(
                f"pileup: {region} depth at +{pos} is {got[pos] if pos < got.size else None}, "
                f"naive count gives {expected[pos]}"
            )


def check_chain(workload: Any, output: Any) -> None:
    """chain: anchors of every chain increase in both coordinates."""
    n = 0
    for t, chains in enumerate(output):
        for chain in chains:
            for a, b in zip(chain.anchors, chain.anchors[1:]):
                n += 1
                if not (b.x > a.x and b.y > a.y):
                    _fail(
                        f"chain: task {t} chain steps from ({a.x}, {a.y}) to "
                        f"({b.x}, {b.y}), not monotone"
                    )
    if n == 0:
        _fail("chain: no chained anchor pairs at all")


def check_bsw(workload: Any, output: Any) -> None:
    """bsw: scores lie between the seed score and the perfect-match score."""
    match = workload.scheme.match
    if len(output) != len(workload.pairs):
        _fail(f"bsw: {len(output)} scores for {len(workload.pairs)} pairs")
    for i, (score, (q, t)) in enumerate(zip(output, workload.pairs)):
        if q[:BSW_SEED_LEN] != t[:BSW_SEED_LEN]:
            _fail(f"bsw: pair {i} does not open with a {BSW_SEED_LEN}-base seed")
        low, high = BSW_SEED_LEN * match, min(len(q), len(t)) * match
        if not low <= score <= high:
            _fail(f"bsw: pair {i} score {score} outside [{low}, {high}]")


def fmi_genome(workload: Any) -> str:
    """The forward reference the fmi workload indexed, regenerated from
    its documented generator and dataset seed."""
    size = DatasetSize.SMALL
    return random_genome(
        dataset_params("fmi", size)["genome_len"], seed=dataset_seed("fmi", size)
    ).upper()


#: kernel -> check(workload, output); fmi takes the genome as well.
KERNEL_CHECKS: dict[str, Callable[..., None]] = {
    "kmer-cnt": check_kmer,
    "grm": check_grm,
    "fmi": lambda w, out: check_fmi(w, out, fmi_genome(w)),
    "poa": check_poa,
    "pileup": check_pileup,
    "chain": check_chain,
    "bsw": check_bsw,
}


def check_outputs(workloads: dict[str, Any], outputs: dict[str, Any]) -> None:
    """Run every kernel check whose kernel produced an output."""
    for kernel, check in KERNEL_CHECKS.items():
        if kernel in outputs:
            check(workloads[kernel], outputs[kernel])


# -- cross-run identity ---------------------------------------------------


def _feed(h: Any, obj: Any, stack: set[int]) -> None:
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(f"f:{obj.hex()};".encode())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item(), stack)
    elif isinstance(obj, np.ndarray):
        h.update(f"nd:{obj.dtype.str}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        if id(obj) in stack:
            raise ValueError(f"cyclic output at {type(obj).__name__}")
        stack.add(id(obj))
        try:
            if isinstance(obj, (list, tuple)):
                h.update(f"{type(obj).__name__}[{len(obj)}];".encode())
                for item in obj:
                    _feed(h, item, stack)
            elif isinstance(obj, dict):
                h.update(f"dict[{len(obj)}];".encode())
                for key in sorted(obj, key=repr):
                    _feed(h, key, stack)
                    _feed(h, obj[key], stack)
            elif isinstance(obj, (set, frozenset)):
                _feed(h, sorted(obj, key=repr), stack)
            elif hasattr(obj, "occupied"):
                # a hash table: contents, not slot layout, are the output
                keys, counts = obj.occupied()
                order = np.argsort(keys, kind="stable")
                _feed(h, (keys[order], counts[order]), stack)
            elif dataclasses.is_dataclass(obj):
                h.update(f"{type(obj).__name__}{{".encode())
                for f in dataclasses.fields(obj):
                    _feed(h, f.name, stack)
                    _feed(h, getattr(obj, f.name), stack)
            elif hasattr(obj, "__dict__"):
                h.update(f"{type(obj).__name__}{{".encode())
                _feed(h, vars(obj), stack)
            else:
                h.update(repr(obj).encode())
        finally:
            stack.discard(id(obj))


def output_digest(output: Any) -> str:
    """Digest of a kernel output's content, independent of memory layout."""
    h = hashlib.sha256()
    _feed(h, output, set())
    return h.hexdigest()[:24]


def check_same_records(first: dict[str, Any], again: dict[str, Any], what: str) -> None:
    """A deduplicated service answer returns the first job's record."""
    if first != again:
        diff = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
        _fail(f"{what}: deduplicated record differs from the original in {diff[:5]}")
