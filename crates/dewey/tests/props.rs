//! Property-based tests pinning down the invariants the index layer relies
//! on: codec bijectivity, order preservation of the byte encoding, and the
//! prefix algebra of Dewey IDs.

use proptest::prelude::*;
use xrank_dewey::codec;
use xrank_dewey::DeweyId;

/// Components drawn to cross all varint tiers with reasonable probability.
fn component() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => 0u32..128,
        3 => 128u32..17_000,
        2 => 17_000u32..3_000_000,
        1 => 3_000_000u32..=u32::MAX,
    ]
}

fn dewey() -> impl Strategy<Value = DeweyId> {
    proptest::collection::vec(component(), 0..12).prop_map(DeweyId::from_components)
}

proptest! {
    #[test]
    fn component_roundtrip(v in any::<u32>()) {
        let mut buf = Vec::new();
        codec::write_component(v, &mut buf);
        prop_assert_eq!(buf.len(), codec::component_encoded_len(v));
        let (back, n) = codec::read_component(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn component_order_preserved(a in any::<u32>(), b in any::<u32>()) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        codec::write_component(a, &mut ea);
        codec::write_component(b, &mut eb);
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn id_roundtrip(id in dewey()) {
        let enc = codec::encode_id(&id);
        prop_assert_eq!(enc.len(), codec::encoded_len(&id));
        prop_assert_eq!(codec::decode_id(&enc).unwrap(), id);
    }

    /// Byte-lexicographic order of encodings equals the logical Dewey order.
    /// This is THE property that lets the B+-tree compare raw bytes.
    #[test]
    fn id_encoding_order_preserved(a in dewey(), b in dewey()) {
        let ea = codec::encode_id(&a);
        let eb = codec::encode_id(&b);
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn common_prefix_is_deepest_common_ancestor(a in dewey(), b in dewey()) {
        let p = a.common_prefix(&b);
        prop_assert!(p.is_ancestor_or_self_of(&a));
        prop_assert!(p.is_ancestor_or_self_of(&b));
        // No deeper common ancestor exists: extending p by one component of
        // a (if any) must not be a prefix of b unless a == b at that slot.
        if p.len() < a.len() && p.len() < b.len() {
            prop_assert_ne!(a.components()[p.len()], b.components()[p.len()]);
        }
    }

    #[test]
    fn ancestor_sorts_before_descendant(id in dewey(), extra in component()) {
        prop_assume!(!id.is_empty());
        let child = id.child(extra);
        prop_assert!(id < child);
        prop_assert!(id.is_ancestor_of(&child));
        prop_assert_eq!(child.parent().is_some(), child.len() > 2);
    }

    #[test]
    fn subtree_upper_bound_bounds_subtree(id in dewey(), extra in component()) {
        prop_assume!(!id.is_empty());
        if let Some(ub) = id.subtree_upper_bound() {
            prop_assert!(id < ub);
            let desc = id.child(extra);
            prop_assert!(desc < ub);
            prop_assert!(!id.is_ancestor_or_self_of(&ub));
        }
    }

    /// The in-place common prefix of two encodings is the decoded one —
    /// shared prefixes, one ID an ancestor of the other, disjoint IDs.
    #[test]
    fn encoded_common_prefix_equals_decoded(a in dewey(), b in dewey(), tail in dewey()) {
        let mut ext = a.components().to_vec();
        ext.extend_from_slice(tail.components());
        let ext = DeweyId::from_components(ext);
        for (x, y) in [(&a, &b), (&a, &ext), (&ext, &a), (&a, &a)] {
            let got = codec::common_prefix_len(&codec::encode_id(x), &codec::encode_id(y));
            prop_assert_eq!(got, Ok(x.common_prefix_len(y)), "{} vs {}", x, y);
        }
    }

    /// Decoding arbitrary garbage never panics, and the in-place common
    /// prefix refuses exactly what decoding refuses.
    #[test]
    fn decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        other in dewey(),
    ) {
        let decoded = codec::decode_id(&bytes);
        let enc = codec::encode_id(&other);
        let in_place = codec::common_prefix_len(&bytes, &enc);
        prop_assert_eq!(in_place, decoded.map(|id| id.common_prefix_len(&other)));
    }
}
