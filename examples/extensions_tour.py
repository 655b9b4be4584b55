"""Extensions tour: weighted mining, UpDown ranking, and support queries.

Run with::

    python examples/extensions_tour.py

Three capabilities beyond the paper's evaluation, each hooked to a
place the paper points at:

1. **weighted cousin pairs** (Section 7, future work i): the same
   pattern class, enriched with branch-length spans;
2. **UpDown / TreeRank** (Section 2's pointer for ancestor-descendant
   pairs): rank a database of phylogenies against a query;
3. **support queries** (the database deployment of this ICDE paper):
   the support of one pattern, and the most frequent patterns of a
   forest.
"""

import random

from repro.core.multi_tree import mine_forest, support
from repro.core.treerank import rank_trees, treerank_score
from repro.core.weighted import mine_tree_weighted
from repro.generate.phylo import random_spr, yule_tree
from repro.generate.sequences import assign_branch_lengths
from repro.trees.newick import parse_newick


def main() -> None:
    rng = random.Random(99)

    # ------------------------------------------------------------------
    # 1. Weighted mining.
    # ------------------------------------------------------------------
    tree = parse_newick(
        "((Human:0.006,Chimp:0.007):0.02,(Mouse:0.08,Rat:0.09):0.03);"
    )
    print("Weighted cousin pairs (branch-length spans):")
    for item in mine_tree_weighted(tree):
        print(f"  {item.describe()}")
    short = mine_tree_weighted(tree, max_span=0.05)
    print(f"Pairs with span <= 0.05 substitutions/site: "
          f"{[(i.label_a, i.label_b) for i in short]}")

    # ------------------------------------------------------------------
    # 2. TreeRank over a small database.
    # ------------------------------------------------------------------
    query = yule_tree(10, rng)
    database = [query] + [random_spr(query, rng) for _ in range(4)] + [
        yule_tree(10, rng) for _ in range(3)
    ]
    print("\nTreeRank: database ranked against the query")
    for position, score in rank_trees(query, database)[:5]:
        relation = "the query itself" if position == 0 else f"tree {position}"
        print(f"  {score:6.2f}  {relation}")
    print(f"  (self-score check: {treerank_score(query, query):.0f}/100)")

    # ------------------------------------------------------------------
    # 3. Support queries.
    # ------------------------------------------------------------------
    forest = [yule_tree(["a", "b", "c", "d", "e"], rng) for _ in range(50)]
    patterns = mine_forest(forest, minsup=1)
    print(f"\nMined {len(forest)} trees, {len(patterns)} distinct patterns")
    print(f"  support of (a, b) as siblings : "
          f"{support(forest, 'a', 'b', 0.0)}/50 trees")
    print(f"  support of (a, b), any distance: {support(forest, 'a', 'b')}/50")
    print("  top 3 patterns by support:")
    for pattern in patterns[:3]:
        print(f"    {pattern.describe()}")


if __name__ == "__main__":
    main()
