"""State re-encoding against removal attacks (Section III-C, Algorithm 1).

Each iteration picks one register from the largest all-original SCC and
one from the largest all-extra SCC of the register connection graph (when
one side is exhausted, the largest mixed SCC substitutes), then replaces
the pair with four arithmetic-coded registers:

    e1 = s1 + s2   (2 bits)          s1' = ((e1' + e2') >> 1) & 1
    e2 = s1 - s2   (2-bit 2's comp)  s2' = ((e1' - e2') >> 1) & 1

The decoder inverts the encoder (``dec(enc(a)) = a``) so the circuit
function is untouched, while the new registers sit on looped paths between
the two SCCs (Eq. 17) and merge them into one mixed SCC.

Algorithm 1's ``update_graph`` is implemented as an exact node merge on
the RCG (the four encoded registers share identical fan-in/fan-out). The
graph is decomposed into SCCs once; after each merge only the merged
node's SCC is recomputed (:class:`~repro.core.rcg.SccPartition`), and the
netlist is never re-extracted.

"Largest" ranks SCCs by (weight, max degree), ties going to the SCC that
holds the earliest register in RCG order (``netlist.flops`` order), so a
lock does not depend on set iteration order. Only zero-reset physical
registers are candidates (the all-zero encoded reset state decodes to
``(0, 0)``); an SCC without one is not eligible.
"""

from __future__ import annotations

from repro.core.rcg import SccPartition, build_rcg, members
from repro.errors import LockingError
from repro.netlist.builder import LogicBuilder
from repro.sim.random_vectors import make_rng


def apply_state_reencoding(locked, s_pairs, rng=None, codec_variants=None):
    """Run Algorithm 1 for ``s_pairs`` iterations on ``locked`` (in place).

    Updates ``locked.netlist`` and the ``encoded_registers`` /
    ``reencoded_pairs`` metadata. Returns the list of selected pairs.
    ``codec_variants`` selects the encoder/decoder per pair (cycled in
    order); the default is the paper's single arithmetic codec.
    """
    if s_pairs < 0:
        raise LockingError("s_pairs must be >= 0")
    rng = rng if rng is not None else make_rng(("reencode", locked.netlist.name))
    variants = tuple(codec_variants) if codec_variants else ("sum_diff",)
    for variant in variants:
        if variant not in CODEC_VARIANTS:
            raise LockingError(f"unknown codec variant {variant!r}")

    netlist = locked.netlist
    builder = LogicBuilder(netlist, prefix="re")
    graph = build_rcg(netlist, locked.register_provenance())
    sccs = SccPartition(graph)
    candidates = 0
    for node, flop in enumerate(netlist.flops.values()):
        if not flop.init:
            candidates |= 1 << node

    pairs = []
    encoded = list(locked.encoded_registers)
    for iteration in range(s_pairs):
        selection = _select_pair(sccs, candidates)
        if selection is None:
            break
        a, b = selection
        r1, r2 = graph.names[a], graph.names[b]
        variant = variants[iteration % len(variants)]
        new_regs = insert_encoder_decoder(builder, r1, r2, iteration,
                                          variant=variant)
        sccs.merge(a, b, f"enc{iteration}", len(new_regs))
        pairs.append((r1, r2))
        encoded.extend(new_regs)

    locked.encoded_registers = tuple(encoded)
    locked.reencoded_pairs = tuple(locked.reencoded_pairs) + tuple(pairs)
    return pairs


def _select_pair(sccs, candidates):
    """Algorithm 1 lines 3-10: pick nodes ``(a, b)`` from two SCCs."""
    buckets = {"O": [], "E": [], "M": []}
    for key, (bits, _, _, kind) in sccs.components.items():
        if bits & candidates:
            buckets[kind].append(key)

    def rank(key):
        _, weight, max_degree, _ = sccs.components[key]
        return weight, max_degree, -key  # ties: the earliest register

    if buckets["O"] and buckets["E"]:
        scc1, scc2 = max(buckets["O"], key=rank), max(buckets["E"], key=rank)
    else:
        remaining = buckets["O"] or buckets["E"]
        if not remaining or not buckets["M"]:
            return None
        scc1, scc2 = max(remaining, key=rank), max(buckets["M"], key=rank)
    return (_max_degree_register(sccs, scc1, candidates),
            _max_degree_register(sccs, scc2, candidates))


def _max_degree_register(sccs, key, candidates):
    """Highest-degree candidate register of an SCC (ties: larger name)."""
    graph = sccs.graph
    return max(members(sccs.components[key][0] & candidates),
               key=lambda node: (graph.degrees[node], graph.names[node]))


#: Available encoder/decoder variants. The paper suggests varying the
#: codec across pairs to avoid a repeated structural signature (its
#: stated future work); every variant satisfies the fixed-point condition
#: dec(enc(a)) = a, decodes the all-zero reset state to (0, 0), and gives
#: some encoded register a fan-in from each of s1/s2 plus each decoder
#: output a fan-in crossing to the other side (Eq. 17's looped path).
#: Note a *two*-register binary codec cannot meet the dependence
#: requirements: no permutation of B^2 fixing 00 makes both code bits
#: depend on both state bits and vice versa — which is why the paper's
#: arithmetic coding spends four registers (and ``onehot3`` three).
CODEC_VARIANTS = ("sum_diff", "diff_sum", "onehot3")


def insert_encoder_decoder(builder, r1, r2, tag=0, variant="sum_diff"):
    """Replace flops ``r1``/``r2`` with arithmetic- or one-hot-coded
    registers.

    Returns the new register Q nets. Requires both flops to reset to 0
    (the all-zero encoded reset state must decode back to ``(0, 0)``).

    Variants (see :data:`CODEC_VARIANTS`):

    * ``sum_diff`` — the paper's ``e1 = s1+s2``, ``e2 = s1−s2`` (4 regs);
    * ``diff_sum`` — operands swapped: ``e1 = s2+s1``, ``e2 = s2−s1``,
      a mirrored wiring signature (4 regs);
    * ``onehot3`` — one-hot coding of the three non-reset states
      (3 regs, OR-based decoder: a structurally distinct signature).
    """
    if variant not in CODEC_VARIANTS:
        raise LockingError(f"unknown codec variant {variant!r}")
    netlist = builder.netlist
    flop1, flop2 = netlist.flop(r1), netlist.flop(r2)
    if flop1.init or flop2.init:
        raise LockingError("re-encoding supports zero-reset flops only")
    s1, s2 = flop1.d, flop2.d

    if variant == "onehot3":
        # code(01)=a, code(10)=b, code(11)=c; code(00)=000 (reset).
        e_a = builder.and_(builder.not_(s1), s2)
        e_b = builder.and_(s1, builder.not_(s2))
        e_c = builder.and_(s1, s2)
        q_a = builder.flop(e_a, name=builder.names.fresh(f"re{tag}_oa"))
        q_b = builder.flop(e_b, name=builder.names.fresh(f"re{tag}_ob"))
        q_c = builder.flop(e_c, name=builder.names.fresh(f"re{tag}_oc"))
        netlist.remove_flop(r1)
        netlist.remove_flop(r2)
        builder.alias(builder.or_(q_b, q_c), r1)  # s1' = b or c
        builder.alias(builder.or_(q_a, q_c), r2)  # s2' = a or c
        return [q_a, q_b, q_c]

    if variant == "diff_sum":
        s1, s2 = s2, s1  # encode the swapped pair, decode crosses back

    # Encoder: e1 = s1+s2 -> (h1, l1); e2 = s1-s2 -> (h2, l2), 2's comp.
    h1 = builder.and_(s1, s2)
    l1 = builder.xor_(s1, s2)
    h2 = builder.and_(builder.not_(s1), s2)  # sign: -1 iff s1=0, s2=1
    l2 = l1  # |s1 - s2| low bit equals the XOR; sharing is intentional

    q_h1 = builder.flop(h1, name=builder.names.fresh(f"re{tag}_e1h"))
    q_l1 = builder.flop(l1, name=builder.names.fresh(f"re{tag}_e1l"))
    q_h2 = builder.flop(h2, name=builder.names.fresh(f"re{tag}_e2h"))
    q_l2 = builder.flop(l2, name=builder.names.fresh(f"re{tag}_e2l"))

    netlist.remove_flop(r1)
    netlist.remove_flop(r2)

    # Decoder: a' = (e1'+e2')/2, b' = (e1'-e2')/2 (bit 1 of each).
    dec_a = builder.xor_(q_h1, q_h2, builder.and_(q_l1, q_l2))
    dec_b = builder.xor_(
        q_h1, builder.not_(q_h2), builder.or_(q_l1, builder.not_(q_l2)))
    if variant == "diff_sum":
        dec_s2, dec_s1 = dec_a, dec_b  # cross back to original roles
    else:
        dec_s1, dec_s2 = dec_a, dec_b
    builder.alias(dec_s1, r1)
    builder.alias(dec_s2, r2)
    return [q_h1, q_l1, q_h2, q_l2]
