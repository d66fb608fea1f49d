"""Deficiency certificates: exact witnesses of infeasibility.

For disjoint S, T the deficiency delta(S,T) = f(S) + deg_{G-S}(T) - f(T)
- q(S,T) is nonnegative for every pair exactly when an f-factor exists.
A single pair with negative deficiency is a replayable proof that no
spanning path-cycle system exists; the exhaustive search finds the
smallest such pair.
"""

from pathcycle import (
    Graph,
    brute_force_f_factor,
    degree_spec_from_terminals,
    evaluate_pair,
    format_certificate,
    search_certificate,
    solve,
)

c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
f = degree_spec_from_terminals(c5, [0, 2])

# Evaluate one pair by hand: S empty, T = {1, 3}.
pair = evaluate_pair(c5, f, [], [1, 3])
print("delta(C5; S={}, T={1,3}) =", pair.delta)
print("f-odd components:", list(pair.odd_components))

# The exhaustive search returns the least violating pair, as a witness
# file that the CLI can replay on any machine.
cert = search_certificate(c5, f)
print("witness file:")
print(format_certificate(cert))

# Duality, three ways: the solver, the exhaustive factor oracle, and the
# certificate search always agree.
for w in [(), (0, 2), (1, 4)]:
    fw = degree_spec_from_terminals(c5, w)
    feasible = solve(c5, w) is not None
    oracle = brute_force_f_factor(c5, fw) is not None
    cert_free = search_certificate(c5, fw) is None
    print(f"W={w}: solve={feasible} oracle={oracle} no-certificate={cert_free}")
    assert feasible == oracle == cert_free

# Parity: the deficiency of any pair has the parity of the degree total.
total = f.total
for s, t in [((), ()), ((0,), ()), ((), (1, 3)), ((4,), (2,))]:
    assert (evaluate_pair(c5, f, s, t).delta - total) % 2 == 0
print("parity of delta always matches f(V):", total % 2 == 0)
