"""Reference implementation for differential tests: ``rootdata.lambda_T``
as it was chosen in two levels, first the Galois orbits of the weights,
then the a-orbits on those orbits, each represented by its first Galois
orbit in index order.

Nothing in the package imports this module.  test_rootdata.py checks
``rootdata.lambda_T`` against it.
"""


def lambda_T_two_level(twist):
    """(weight vector, center coordinates) of lambda_T by the two-level
    rule."""
    datum = twist.datum
    r = datum.rank
    # Galois orbits of the weights
    seen = [False] * r
    gorbits = []
    for w in range(r):
        if seen[w]:
            continue
        orb = set()
        x = w
        while x not in orb:
            orb.add(x)
            seen[x] = True
            x = twist.galois_perm[x]
        gorbits.append(tuple(sorted(orb)))
    # a-orbits on the set of Galois orbits
    index_of = {orb: i for i, orb in enumerate(gorbits)}
    a_on_orbits = {}
    for orb in gorbits:
        img = tuple(sorted(twist.a_perm[w] for w in orb))
        a_on_orbits[index_of[orb]] = index_of[img]
    chosen = []
    seen_o = set()
    for i in range(len(gorbits)):
        if i in seen_o:
            continue
        chosen.append(i)
        j = i
        while j not in seen_o:
            seen_o.add(j)
            j = a_on_orbits[j]
    lam = [0] * r
    for i in chosen:
        for w in gorbits[i]:
            lam[w] += 1
    lam = tuple(lam)
    return lam, datum.center_class(lam)
