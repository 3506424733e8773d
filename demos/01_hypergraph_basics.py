"""
Building and traversing the clinical hypergraph
===============================================

A hyperedge is one natural-language fact over any number of entities, so a
waveform-symptom-diagnosis chain stays one unit instead of being shredded
into binary triples. The store keeps entities and hyperedges as two node
families of a bipartite graph, which makes neighborhood traversal uniform.
"""

from eegrag import BipartiteStore, HashedTokenEmbedder

store = BipartiteStore(embedding_dim=8)
embedder = HashedTokenEmbedder(8)

# Entities are content-addressed: the id is a hash of the normalized name,
# so re-adding "Spike-Wave Discharge" merges instead of duplicating.
swd = store.add_entity("spike-wave discharge", "waveform", "generalized 3 Hz pattern")
absence = store.add_entity("absence seizure", "symptom", "brief staring spell")
epilepsy = store.add_entity("epilepsy", "diagnosis", "recurrent unprovoked seizures")
valproate = store.add_entity("valproate", "treatment", "antiseizure medication")

assert store.add_entity("Spike-Wave   Discharge") == swd  # same node

# One n-ary fact each: the diagnostic chain, and the treatment link. Every
# fact carries the embedding of its description, which retrieval searches.
chain_text = "3 Hz spike-wave discharge accompanies absence seizure in epilepsy"
chain = store.add_hyperedge(chain_text, {swd, absence, epilepsy}, embedder.embed(chain_text))
treatment_text = "valproate is first-line for epilepsy with absence seizure"
treatment = store.add_hyperedge(
    treatment_text, {valproate, epilepsy, absence}, embedder.embed(treatment_text)
)

print("entities:", len(store.entities), " hyperedges:", len(store.hyperedges))

# The incidence index answers "which facts mention this entity?" directly.
print("\nfacts mentioning 'epilepsy':")
for hid in sorted(store.incident_hyperedges(epilepsy)):
    print("  -", store.hyperedges[hid].description)

# Bounded BFS over the bipartite graph: radius counts hops, and one hop
# crosses between an entity and a fact. From the waveform, two hops reach
# every entity of the diagnostic chain; four reach the treatment too.
for radius in (0, 1, 2, 4):
    hood = store.neighborhood({swd}, radius)
    names = sorted(store.entities[e].name for e in hood.entity_ids)
    print(f"\nradius {radius}: {len(hood.hyperedge_ids)} facts, entities = {names}")

# Sealing freezes the store for concurrent readers; writes now fail fast.
store.seal()
try:
    store.add_entity("too late")
except Exception as exc:
    print("\nafter seal:", type(exc).__name__, "-", exc)
