"""Sec. 3.3 — client reasoning: the post-condition ``a∈X ⇒ a∈Y``.

Regenerates: the exhaustive small-scope model-check of the two-replica
OR-Set client program under every delivery interleaving, and the spec-level
enumeration of RA-linearizations the paper's argument quantifies over.
"""

from conftest import emit
from repro.clients import check_client_assertion, enumerate_ra_linearizations
from repro.crdts import OpORSet
from repro.runtime import (
    OpBasedSystem,
    explore_op_programs_naive,
    op_config_key,
)
from repro.scenarios import section33_programs
from repro.specs import ORSetRewriting, ORSetSpec


def test_postcondition_all_interleavings(benchmark):
    programs, postcondition = section33_programs()

    def check():
        return check_client_assertion(OpORSet, programs, postcondition)

    result = benchmark.pedantic(check, rounds=1, iterations=1)
    # The oracle: every raw interleaving of the naive explorer, collapsed
    # to distinct final configurations — what the engine counts.
    distinct = set()
    raw = explore_op_programs_naive(
        lambda: OpBasedSystem(OpORSet(), replicas=sorted(programs)),
        programs,
        lambda system, returns: distinct.add(op_config_key(system, returns)),
    )
    assert result.holds
    assert result.configurations == len(distinct)
    emit(
        "Sec. 3.3 — client verification of  add(a);rem(a);X=read() ∥ "
        "add(a);Y=read()",
        f"distinct configurations explored : {result.configurations} "
        f"(of {raw} raw interleavings)\n"
        "post-condition a∈X ⇒ a∈Y : HOLDS in every execution "
        "[paper: holds]",
    )


def test_ra_linearization_enumeration(benchmark):
    # One concrete execution; count its RA-linearizations (the set the
    # paper's hand proof quantifies over).
    system = OpBasedSystem(OpORSet(), replicas=("r1", "r2"))
    system.invoke("r1", "add", ("a",))
    system.invoke("r1", "remove", ("a",))
    system.invoke("r2", "add", ("a",))
    system.deliver_all()
    system.invoke("r1", "read")
    system.invoke("r2", "read")
    history = system.history()

    def enumerate_all():
        return list(
            enumerate_ra_linearizations(history, ORSetSpec(), ORSetRewriting())
        )

    witnesses = benchmark(enumerate_all)
    assert witnesses
