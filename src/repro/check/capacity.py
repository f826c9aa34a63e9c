"""The paper's §3 cache-fitting constraints, re-derived from parameters.

:func:`check_parameters` re-derives the constraints from the
algorithm's chosen parameters: ``1 + λ + λ² ≤ CS`` (Algorithm 1),
``1 + µ + µ² ≤ CD`` (Algorithm 2), ``α² + 2αβ ≤ CS`` with ``√p·µ | α``
(Algorithm 3), and ``3t² ≤ C`` for the equal-thirds baselines.
Constructors enforce these today; the checker proves they *stay*
enforced when parameters are overridden or constructors refactored.
The working-set half of the capacity proof is part of the residency
walk, :func:`repro.check.presence.check_residency`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.algorithms.base import MatmulAlgorithm
from repro.check.findings import ERROR, Finding


def check_parameters(alg: MatmulAlgorithm, *, machine: str = "") -> List[Finding]:
    """Prove the algorithm's tile parameters satisfy the §3 constraints."""
    findings: List[Finding] = []
    cs, cd, p = alg.machine.cs, alg.machine.cd, alg.machine.p

    def fail(message: str) -> None:
        findings.append(
            Finding(
                "capacity",
                ERROR,
                message,
                algorithm=alg.name,
                machine=machine,
                rule="capacity/param-constraint",
            )
        )

    params: Dict[str, object] = alg.parameters()
    lam = params.get("lambda")
    if isinstance(lam, int) and 1 + lam + lam * lam > cs:
        fail(f"lambda={lam} violates 1 + λ + λ² <= CS={cs}")
    mu = params.get("mu")
    if isinstance(mu, int) and 1 + mu + mu * mu > cd:
        fail(f"mu={mu} violates 1 + µ + µ² <= CD={cd}")
    alpha, beta = params.get("alpha"), params.get("beta")
    if isinstance(alpha, int) and isinstance(beta, int):
        if alpha * alpha + 2 * alpha * beta > cs:
            fail(f"(alpha={alpha}, beta={beta}) violates α² + 2αβ <= CS={cs}")
        if isinstance(mu, int):
            side = int(p**0.5)
            if side * side == p and alpha % (side * mu) != 0:
                fail(f"alpha={alpha} is not a multiple of √p·µ={side * mu}")
    t = params.get("t")
    if isinstance(t, int):
        # Equal-thirds: the constraint binds the cache the variant targets.
        target_cap = cs if alg.name == "shared-equal" else cd
        if 3 * t * t > target_cap:
            fail(f"t={t} violates 3t² <= {'CS' if target_cap == cs else 'CD'}={target_cap}")
    return findings
