"""Each correctness check accepts a right output and rejects a wrong one."""

from __future__ import annotations

import copy
import random
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from checks import CheckError


def _rng_seq(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(n))


# -- kmer-cnt -------------------------------------------------------------


@pytest.fixture(scope="module")
def kmer_case():
    from repro.kmer.counting import count_reads

    rng = random.Random(7)
    reads = [_rng_seq(rng, 300) for _ in range(6)]
    reads.append(reads[0][:120])  # repeated k-mers
    workload = SimpleNamespace(reads=reads, kmer_size=11)
    return workload, count_reads(reads, 11)


def test_kmer_accepts_program_counts(kmer_case):
    checks.check_kmer(*kmer_case)


def test_kmer_rejects_a_count_off_by_one(kmer_case):
    workload, output = kmer_case
    wrong = copy.deepcopy(output)
    wrong.table.counts[np.nonzero(wrong.table.counts > 0)[0][0]] += 1
    with pytest.raises(CheckError, match="kmer-cnt"):
        checks.check_kmer(workload, wrong)


# -- grm ------------------------------------------------------------------


@pytest.fixture(scope="module")
def grm_case():
    from repro.grm.grm import grm_blocked
    from repro.grm.variants import simulate_genotypes

    data = simulate_genotypes(24, 700, seed=3)
    return SimpleNamespace(data=data), grm_blocked(data, block=128)


def test_grm_accepts_program_matrix(grm_case):
    checks.check_grm(*grm_case)


def test_grm_rejects_a_perturbed_entry(grm_case):
    workload, output = grm_case
    wrong = output.copy()
    wrong[3, 5] += 1e-6
    with pytest.raises(CheckError, match=r"G\[3,5\]"):
        checks.check_grm(workload, wrong)


# -- fmi ------------------------------------------------------------------


@pytest.fixture
def fmi_case():
    rng = random.Random(11)
    genome = _rng_seq(rng, 400)
    fwd = genome[50:90]
    rev = checks.revcomp(genome[200:230])
    read = SimpleNamespace(name="r0", sequence=fwd + rev)
    seeds = [[(0, 50, 40, "+"), (40, 200, 30, "-")]]
    workload = SimpleNamespace(reads=[read], genome_len=len(genome), min_seed_len=19)
    return workload, seeds, genome


def test_fmi_accepts_seeds_on_both_strands(fmi_case):
    checks.check_fmi(*fmi_case)


@pytest.mark.parametrize("bad", [(0, 51, 40, "+"), (40, 200, 30, "+"), (0, 50, 10, "+")])
def test_fmi_rejects_a_wrong_seed(fmi_case, bad):
    workload, seeds, genome = fmi_case
    with pytest.raises(CheckError, match="fmi"):
        checks.check_fmi(workload, [[bad]], genome)


# -- poa ------------------------------------------------------------------


def _naive_edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_edit_distance_matches_the_textbook_recurrence():
    rng = random.Random(5)
    for _ in range(40):
        a, b = _rng_seq(rng, rng.randrange(0, 30)), _rng_seq(rng, rng.randrange(0, 30))
        assert checks.edit_distance(a, b) == _naive_edit_distance(a, b)


def test_poa_identity_floor():
    rng = random.Random(2)
    truth = _rng_seq(rng, 200)
    workload = SimpleNamespace(windows=[SimpleNamespace(truth=truth)])
    checks.check_poa(workload, [truth[:3] + truth[4:]])  # one deletion: 0.995
    garbled = "".join("A" if i % 5 == 0 else c for i, c in enumerate(truth))
    with pytest.raises(CheckError, match="poa: window 0"):
        checks.check_poa(workload, [garbled])


# -- pileup ---------------------------------------------------------------


@pytest.fixture(scope="module")
def pileup_case():
    from repro.io.regions import GenomicRegion
    from repro.io.sam import simulate_alignments
    from repro.pileup.counts import count_region
    from repro.sequence.simulate import LongReadSimulator, random_genome

    genome = random_genome(6_000, seed=4)
    records = simulate_alignments(
        genome, "chr1", 6, seed=5,
        simulator=LongReadSimulator(mean_len=900, error_rate=0.08),
    )
    region = GenomicRegion("chr1", 1_000, 3_000)
    workload = SimpleNamespace(tasks=[(region, records)])
    return workload, [count_region(records, region)]


def test_pileup_accepts_program_depth(pileup_case):
    checks.check_pileup(*pileup_case)


def test_pileup_rejects_a_miscounted_position(pileup_case):
    workload, output = pileup_case
    wrong = copy.deepcopy(output)
    wrong[0].bases[17, 2, 0] += 1
    with pytest.raises(CheckError, match=r"depth at \+17"):
        checks.check_pileup(workload, wrong)


# -- chain ----------------------------------------------------------------


def _anchor(x: int, y: int) -> SimpleNamespace:
    return SimpleNamespace(x=x, y=y, length=15)


def test_chain_monotone_in_both_coordinates():
    good = [[SimpleNamespace(anchors=[_anchor(0, 5), _anchor(30, 40), _anchor(90, 99)])]]
    checks.check_chain(None, good)
    for swapped in ([_anchor(0, 5), _anchor(30, 4)], [_anchor(30, 5), _anchor(30, 40)]):
        with pytest.raises(CheckError, match="not monotone"):
            checks.check_chain(None, [[SimpleNamespace(anchors=swapped)]])


# -- bsw ------------------------------------------------------------------


def test_bsw_score_bounds():
    rng = random.Random(9)
    seed = _rng_seq(rng, 40)
    q, t = seed + _rng_seq(rng, 30), seed + _rng_seq(rng, 50)
    workload = SimpleNamespace(pairs=[(q, t)], scheme=SimpleNamespace(match=1))
    checks.check_bsw(workload, [40])
    checks.check_bsw(workload, [70])
    for score in (39, 71):
        with pytest.raises(CheckError, match="outside"):
            checks.check_bsw(workload, [score])


# -- cross-run identity and service ----------------------------------------


def test_digest_ignores_hash_table_layout_but_not_counts(kmer_case):
    from repro.kmer.counting import count_reads

    workload, output = kmer_case
    reordered = count_reads(list(reversed(workload.reads)), workload.kmer_size)
    assert checks.output_digest(reordered) == checks.output_digest(output)
    wrong = copy.deepcopy(output)
    wrong.table.counts[np.nonzero(wrong.table.counts > 0)[0][0]] += 1
    assert checks.output_digest(wrong) != checks.output_digest(output)


def test_digest_tells_floats_apart():
    assert checks.output_digest([0.1, 0.2]) != checks.output_digest([0.1, 0.2 + 1e-16])
    assert checks.output_digest({"a": np.arange(3)}) == checks.output_digest({"a": np.arange(3)})


def test_dedup_record_must_equal_the_original():
    record = {"data": {"kernel": "grm", "task_work": [1, 2]}}
    checks.check_same_records(record, copy.deepcopy(record), "grm")
    changed = copy.deepcopy(record)
    changed["data"]["task_work"][1] = 3
    with pytest.raises(CheckError, match="differs"):
        checks.check_same_records(record, changed, "grm")
