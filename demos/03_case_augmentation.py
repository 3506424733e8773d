"""
Patient cases and pseudo-case augmentation
==========================================

Each record is serialized into a canonical sorted attribute tuple and
hashed. Records that lack an attribute most peers have get a synthetic
pseudo-case: the nearest neighbor (by cosine over the cases' embeddings,
each case embedded as one text unit) donates its values, provided the
similarity clears a threshold. Originals are never touched.
"""

from eegrag import CaseStore, HashedTokenEmbedder, PatientRecord, augment_pseudo_cases
from eegrag.cases import case_id, serialize_case

embedder = HashedTokenEmbedder(256)

# Canonical serialization: sorted names, trimmed values -> stable hash.
rec = PatientRecord.from_raw({"sex": "F", "age": " 34 "})
print("canonical:", serialize_case(rec))
print("hash:     ", case_id(serialize_case(rec)))

store = CaseStore()
complete = PatientRecord.from_raw(
    {
        "age": "34",
        "sex": "F",
        "history": "childhood staring spells",
        "medication": "valproate",
        "diagnosis": "epilepsy",
    }
)
# Same presentation, but the referral letter never mentioned medication.
incomplete = PatientRecord.from_raw(
    {
        "age": "36",
        "sex": "F",
        "history": "childhood staring spells",
        "diagnosis": "epilepsy",
    }
)
unrelated = PatientRecord.from_raw(
    {"age": "70", "sex": "M", "medication": "levodopa", "diagnosis": "parkinson disease"}
)
for record in (complete, incomplete, unrelated):
    store.add_record(record)

# "medication" is present in 2 of 3 cases (>= 50%), so the incomplete case
# qualifies. Its nearest neighbor is the near-twin epilepsy case.
for fill in augment_pseudo_cases(store, embedder, tau=0.60):
    print(
        f"\nrecipient {fill.recipient}\n"
        f"donor     {fill.donor}  (cosine {fill.similarity:.3f})\n"
        f"filled    {fill.attributes}"
    )
    synthetic = store.cases[fill.synthetic_hash]
    print("synthetic case:", synthetic.canonical)
    print("marker suffix: ", synthetic.h)

print("\nstore now holds", len(store), "cases;",
      sum(1 for c in store.cases.values() if c.synthetic), "synthetic")
