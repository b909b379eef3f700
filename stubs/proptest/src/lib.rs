//! Offline stand-in for `proptest` 1.4.
//!
//! Covers the surface the workspace's property tests use: `proptest!`
//! (with an optional `#![proptest_config(..)]`), `prop_assert*`, integer
//! and `f64` ranges, tuples, `any`, `Just`, `prop_map` and
//! `prop::collection::{vec, hash_set}`. Each test draws its cases from a
//! splitmix64 stream seeded by the test's name, so runs are repeatable.
//! There is no shrinking: a failing case panics with the plain assertion.
//! The macro emits no `#[test]` of its own; every block writes one.

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::{Range, RangeInclusive};

pub struct TestRng(u64);
impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}
impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}
impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { s: self, f }
    }
}
pub struct Map<S, F> {
    s: S,
    f: F,
}
impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.s.generate(rng))
    }
}

macro_rules! int_ranges { ($($t:ty),*) => { $(
    impl Strategy for Range<$t> { type Value = $t;
        fn generate(&self, rng: &mut TestRng) -> $t {
            assert!(self.start < self.end, "empty range");
            let span = (self.end as i128 - self.start as i128) as u128;
            (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t } }
    impl Strategy for RangeInclusive<$t> { type Value = $t;
        fn generate(&self, rng: &mut TestRng) -> $t {
            let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
            (*self.start() as i128 + (rng.next_u64() as u128 % span) as i128) as $t } }
    impl Arbitrary for $t { fn arb(rng: &mut TestRng) -> $t { rng.next_u64() as $t } }
)* } }
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let v = self.start + (self.end - self.start) * rng.unit();
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}
impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + (self.end() - self.start()) * rng.unit()
    }
}

pub trait Arbitrary {
    fn arb(rng: &mut TestRng) -> Self;
}
impl Arbitrary for bool {
    fn arb(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
pub struct Any<T>(std::marker::PhantomData<T>);
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}
impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arb(rng)
    }
}

pub struct Just<T: Clone>(pub T);
impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuples { ($(($($n:ident $i:tt),*)),*) => { $(
    impl<$($n: Strategy),*> Strategy for ($($n,)*) { type Value = ($($n::Value,)*);
        fn generate(&self, rng: &mut TestRng) -> Self::Value { ($(self.$i.generate(rng),)*) } }
)* } }
tuples!((A 0), (A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3), (A 0, B 1, C 2, D 3, E 4), (A 0, B 1, C 2, D 3, E 4, F 5));

pub mod collection {
    use super::*;
    pub struct VecStrategy<S> {
        s: S,
        len: Range<usize>,
    }
    pub fn vec<S: Strategy>(s: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { s, len }
    }
    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                self.len.clone().generate(rng)
            };
            (0..n).map(|_| self.s.generate(rng)).collect()
        }
    }
    pub struct HashSetStrategy<S> {
        s: S,
        len: Range<usize>,
    }
    pub fn hash_set<S: Strategy>(s: S, len: Range<usize>) -> HashSetStrategy<S>
    where
        S::Value: Hash + Eq,
    {
        HashSetStrategy { s, len }
    }
    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                self.len.clone().generate(rng)
            };
            let mut out = HashSet::new();
            let mut tries = 0;
            while out.len() < n && tries < n * 100 + 100 {
                out.insert(self.s.generate(rng));
                tries += 1;
            }
            out
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! prop_assert { ($($t:tt)*) => { assert!($($t)*) }; }
#[macro_export]
macro_rules! prop_assert_eq { ($($t:tt)*) => { assert_eq!($($t)*) }; }
#[macro_export]
macro_rules! prop_assert_ne { ($($t:tt)*) => { assert_ne!($($t)*) }; }

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => { $crate::proptest!(@cfg ($cfg) $($rest)*); };
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr) $(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])* fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new($crate::seed_of(stringify!($name)));
            for _case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)*
                $body
            }
        }
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => { $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*); };
}
