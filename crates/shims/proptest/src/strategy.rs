//! The [`Strategy`] trait and the combinators the workspace uses.

use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type (`Debug`, as upstream requires, so a failing
    /// case can print its inputs).
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy behind a cloneable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Builds recursive values: `self` is the leaf case, and `f` wraps an
    /// inner strategy into one more level of structure. `depth` bounds the
    /// nesting; the size/branch hints of real proptest are accepted but
    /// unused.
    fn prop_recursive<F, S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let base = self.boxed();
        let mut cur = base.clone();
        for _ in 0..depth.max(1) {
            let expanded = f(cur).boxed();
            // Lean toward expansion so deep structures actually occur;
            // the leaf arm keeps generated sizes in check.
            cur = Union::new(vec![(1, base.clone()), (3, expanded)]).boxed();
        }
        cur
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
    O: Debug,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A cloneable, type-erased strategy handle (see [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Weighted choice among strategies of one value type (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// A union of `(weight, strategy)` arms. Weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, strat) in &self.arms {
            if pick < *w as u64 {
                return strat.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weighted pick within total")
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized + Debug {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical strategy for `T` (`any::<u32>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = hi as i128 - lo as i128 + 1;
                if span > u64::MAX as i128 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span as u64) as $t)
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Characters for string strategies: printable ASCII plus XML
/// metacharacters and a few multi-byte code points, so parser fuzz tests
/// exercise escaping and UTF-8 boundaries.
const STRING_CHARS: &[char] = &[
    'a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '1', '9', ' ', ' ', '\t', '\n', '<', '>', '&',
    ';', '"', '\'', '=', '/', '!', '?', '-', '.', '_', ':', '#', '[', ']', '(', ')', 'é', 'ß',
    '中', '🙂', '\u{7f}', '\u{a0}',
];

/// String literals act as strategies. Real proptest interprets them as
/// regexes; this shim ignores the pattern and generates printable fuzz
/// strings (all workspace uses are `"\\PC*"`-style "any printable string").
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.below(48) as usize;
        (0..len)
            .map(|_| STRING_CHARS[rng.below(STRING_CHARS.len() as u64) as usize])
            .collect()
    }
}
