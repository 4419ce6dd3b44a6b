"""The seeded registry both the session workloads and `certify` start from.

It is built through the program's own Registry: random link requests, a few
protections of seeded states, and after each protection a short chain of
links from its vanishing tuple. The chain makes vanishing words that reach
every trace case:

  g1  links the pivot cylinder to (x)          late-dominates, depth 2
  g2  links g1's range to the domain of g3     late-dominates, depth 3
  g3  an earlier depth-2 generator             prefix-rewrite on g2's range
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import monomial_text, rand_state, rand_tuple, tuple_text

# First coordinates of random requests stay below this, so every pivot is a
# label no random request uses.
REQUEST_LABELS = 10
HORIZON = 3


@dataclass
class Chain:
    """The records one protection's vanishing words are made from."""

    stage: int
    state: list
    pivot: tuple
    g1: tuple
    g2: tuple
    g3: tuple
    early: tuple  # a depth-2 generator issued before the protection

    def words(self) -> dict:
        """Named words of (monomial) factors, each a list acting rightmost first."""
        p = (self.pivot, self.pivot)
        ran1 = (self.g1[1], self.g1[1])
        adj1 = (self.g1[1], self.g1[0])
        deeper = (self.g1[0], self.g1[0])
        return {
            "base": [self.g1, p],
            "carry": [self.g2, ran1, self.g1, p],
            "rewrite": [self.g3, self.g2, self.g1, p],
            "anchor": [self.g1, p, deeper],
            "early-zero": [self.early, p],
            "late-zero": [adj1, p],
        }


def word_text(word, generators: set) -> str:
    """A word as program text; a factor that is not a registered generator is
    written as the adjoint of one."""
    parts = []
    for dom, ran in word:
        if dom == ran or (dom, ran) in generators:
            parts.append(monomial_text((dom, ran)))
        else:
            parts.append(f"V({tuple_text(ran)};{tuple_text(dom)})'")
    return " ".join(parts)


def build_registry(pa, rng, records: int, protections: int):
    """Build the seeded registry through the program. Returns it, its chains,
    and the set of (dom, ran) pairs it issued."""
    reg = pa.registry.Registry()
    chains = []
    segment = records // (protections + 1)
    for _ in range(protections):
        while len(reg.records) < len(chains) * segment + segment - 3:
            reg.link(rand_tuple(rng, REQUEST_LABELS), rand_tuple(rng, REQUEST_LABELS))
        depth2 = [r for r in reg.records if getattr(r, "n", 0) == 2]
        early = rng.choice(depth2)
        g3 = rng.choice(depth2)
        state, state_text = rand_state(rng, REQUEST_LABELS)
        prot = reg.register_protection(pa.polynomials.parse_state_text(state_text), HORIZON)
        pivot = reg.vanishing_tuple(prot)
        g1 = reg.link(pivot, (rng.randrange(REQUEST_LABELS),))
        g2 = reg.link(g1.ran, g3.dom)
        chains.append(
            Chain(
                stage=prot.stage,
                state=state,
                pivot=pivot,
                g1=(g1.dom, g1.ran),
                g2=(g2.dom, g2.ran),
                g3=(g3.dom, g3.ran),
                early=(early.dom, early.ran),
            )
        )
    while len(reg.records) < records:
        reg.link(rand_tuple(rng, REQUEST_LABELS), rand_tuple(rng, REQUEST_LABELS))
    generators = {(r.dom, r.ran) for r in reg.records if hasattr(r, "fresh")}
    return reg, chains, generators
