//! Property-based tests for the numeric substrate: ring axioms against
//! machine-word oracles, division/gcd identities, Lemma 1 bounds, and wire
//! round-trips.

use bc_numeric::bits::{id_bits, BitWriter};
use bc_numeric::{BigRational, BigUint, CeilFloat, FpParams, Rounding};
use proptest::prelude::*;

fn big(v: u128) -> BigUint {
    BigUint::from(v)
}

proptest! {
    #[test]
    fn add_matches_u128(a in 0u128..u128::MAX / 2, b in 0u128..u128::MAX / 2) {
        prop_assert_eq!((&big(a) + &big(b)).to_u128(), Some(a + b));
    }

    #[test]
    fn sub_matches_u128(a in 0u128..u128::MAX, b in 0u128..u128::MAX) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert_eq!((&big(hi) - &big(lo)).to_u128(), Some(hi - lo));
    }

    #[test]
    fn mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        prop_assert_eq!(
            (&BigUint::from(a) * &BigUint::from(b)).to_u128(),
            Some(a as u128 * b as u128)
        );
    }

    #[test]
    fn mul_commutes_and_associates(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (BigUint::from(a), BigUint::from(b), BigUint::from(c));
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn distributivity(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (BigUint::from(a), BigUint::from(b), BigUint::from(c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_identity(a in any::<u128>(), b in 1u128..u128::MAX) {
        let (q, r) = big(a).div_rem(&big(b));
        prop_assert!(r < big(b));
        prop_assert_eq!(&(&q * &big(b)) + &r, big(a));
    }

    #[test]
    fn div_rem_large_operands(a in any::<u64>(), b in 1u64..u64::MAX, e in 1u32..6) {
        // Exercise multi-limb divisor paths with a^e / b^(e/2+1).
        let x = BigUint::from(a).pow(e) + &BigUint::from(b);
        let d = BigUint::from(b).pow(e / 2 + 1);
        let (q, r) = x.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, x);
    }

    #[test]
    fn gcd_divides_both(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        let g = BigUint::from(a).gcd(&BigUint::from(b));
        prop_assert!((&BigUint::from(a) % &g).is_zero());
        prop_assert!((&BigUint::from(b) % &g).is_zero());
        // Matches the u64 oracle.
        let oracle = {
            let (mut x, mut y) = (a, b);
            while y != 0 { let t = x % y; x = y; y = t; }
            x
        };
        prop_assert_eq!(g.to_u64(), Some(oracle));
    }

    #[test]
    fn decimal_roundtrip(a in any::<u128>(), e in 1u32..4) {
        let v = big(a).pow(e);
        prop_assert_eq!(BigUint::from_decimal(&v.to_decimal()).unwrap(), v);
    }

    #[test]
    fn shifts_invert(a in any::<u128>(), k in 0usize..200) {
        let v = big(a);
        prop_assert_eq!(v.shl_bits(k).shr_bits(k), v);
    }

    #[test]
    fn rational_field_axioms(
        (an, ad) in (0u64..1000, 1u64..1000),
        (bn, bd) in (0u64..1000, 1u64..1000),
        (cn, cd) in (0u64..1000, 1u64..1000),
    ) {
        let a = BigRational::from_ratio_u64(an, ad);
        let b = BigRational::from_ratio_u64(bn, bd);
        let c = BigRational::from_ratio_u64(cn, cd);
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&(&a + &b) - &b, a.clone());
        if !b.is_zero() {
            prop_assert_eq!(&(&a * &b) / &b, a);
        }
    }

    #[test]
    fn rational_matches_f64(
        (an, ad) in (0u64..10_000, 1u64..10_000),
        (bn, bd) in (0u64..10_000, 1u64..10_000),
    ) {
        let a = BigRational::from_ratio_u64(an, ad);
        let b = BigRational::from_ratio_u64(bn, bd);
        let sum = (&a + &b).to_f64();
        let expect = an as f64 / ad as f64 + bn as f64 / bd as f64;
        prop_assert!((sum - expect).abs() <= 1e-9 * expect.max(1.0));
    }

    #[test]
    fn lemma1_holds_for_random_values(v in 1u64..u64::MAX, l in 2u32..28) {
        let params = FpParams::new(l, Rounding::Ceil);
        let f = CeilFloat::from_u64(v, params);
        // Ceil: estimate is an upper bound within 2^{-L+1} relative error.
        let rel = f.to_f64() / v as f64 - 1.0;
        prop_assert!(rel >= -1e-12, "not an upper bound: v={v} l={l}");
        prop_assert!(rel <= params.lemma1_bound() + 1e-12, "bound violated: v={v} l={l} rel={rel}");
    }

    #[test]
    fn lemma1_holds_for_biguint_powers(base in 2u64..1000, e in 1u32..40, l in 4u32..28) {
        let params = FpParams::new(l, Rounding::Ceil);
        let v = BigUint::from(base).pow(e);
        let f = CeilFloat::from_biguint(&v, params);
        // Compare exactly via rationals to avoid f64 rounding of the oracle.
        let exact = BigRational::from_biguint(v);
        let est = f.to_rational();
        prop_assert!(est >= exact, "ceil must upper-bound");
        let err = &(&est - &exact) / &exact;
        let bound = BigRational::from_ratio_u64(2, 1u64 << l.min(62));
        prop_assert!(err <= bound, "Lemma 1 exact-rational bound violated");
    }

    #[test]
    fn ceilfloat_add_upper_bounds(a in 1u64..u32::MAX as u64, b in 1u64..u32::MAX as u64, l in 4u32..24) {
        let params = FpParams::new(l, Rounding::Ceil);
        let s = CeilFloat::from_u64(a, params) + CeilFloat::from_u64(b, params);
        let exact = (a + b) as f64;
        prop_assert!(s.to_f64() >= exact * (1.0 - 1e-12));
        prop_assert!(s.to_f64() <= exact * (1.0 + 4.0 * params.lemma1_bound()));
    }

    #[test]
    fn ceilfloat_mul_upper_bounds(a in 1u64..u32::MAX as u64, b in 1u64..u32::MAX as u64, l in 4u32..24) {
        let params = FpParams::new(l, Rounding::Ceil);
        let m = CeilFloat::from_u64(a, params) * CeilFloat::from_u64(b, params);
        let exact = a as f64 * b as f64;
        prop_assert!(m.to_f64() >= exact * (1.0 - 1e-12));
        prop_assert!(m.to_f64() <= exact * (1.0 + 4.0 * params.lemma1_bound()));
    }

    #[test]
    fn ceilfloat_encode_roundtrip(v in 1u64..u64::MAX, l in 2u32..28) {
        let params = FpParams::new(l, Rounding::Ceil);
        let f = CeilFloat::from_u64(v, params);
        prop_assert_eq!(CeilFloat::decode(f.encode(), params), f);
        prop_assert!(f.encode() < 1u64 << params.encoded_bits());
        let r = f.recip();
        prop_assert_eq!(CeilFloat::decode(r.encode(), params), r);
    }

    #[test]
    fn ceilfloat_order_matches_f64(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
        let params = FpParams::new(20, Rounding::Ceil);
        let (fa, fb) = (CeilFloat::from_u64(a, params), CeilFloat::from_u64(b, params));
        if fa < fb {
            prop_assert!(fa.to_f64() <= fb.to_f64());
        } else {
            prop_assert!(fa.to_f64() >= fb.to_f64());
        }
    }

    #[test]
    fn nearest_mode_error_smaller_or_equal_on_average(vals in prop::collection::vec(1u64..100_000, 10..60)) {
        // Sanity for the E10b ablation: summing with Nearest never does
        // *worse* than twice the Ceil error bound on these inputs.
        let lc = FpParams::new(10, Rounding::Ceil);
        let ln = FpParams::new(10, Rounding::Nearest);
        let exact: f64 = vals.iter().map(|&v| v as f64).sum();
        let mut sc = CeilFloat::zero(lc);
        let mut sn = CeilFloat::zero(ln);
        for &v in &vals {
            sc += CeilFloat::from_u64(v, lc);
            sn += CeilFloat::from_u64(v, ln);
        }
        let ec = (sc.to_f64() - exact).abs() / exact;
        let en = (sn.to_f64() - exact).abs() / exact;
        prop_assert!(en <= 2.0 * ec + lc.lemma1_bound());
    }

    #[test]
    fn bit_writer_roundtrips_random_fields(fields in prop::collection::vec((any::<u64>(), 1u32..=64), 1..100)) {
        let mut w = BitWriter::new();
        let mut masked = Vec::new();
        for &(v, width) in &fields {
            let m = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            masked.push((m, width));
            w.push(m, width);
        }
        let buf = w.finish();
        prop_assert_eq!(buf.bit_len(), fields.iter().map(|&(_, w)| w as usize).sum::<usize>());
        prop_assert_eq!(&buf.clone(), &buf);
        let mut r = buf.reader();
        for (m, width) in masked {
            prop_assert_eq!(r.read(width), m);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn id_bits_is_sufficient_and_tight(n in 2usize..1_000_000) {
        let b = id_bits(n);
        // Every id in 0..n fits.
        prop_assert!(((n - 1) as u64) < (1u64 << b));
        // One bit fewer would not fit.
        if b > 1 {
            prop_assert!(((n - 1) as u64) >= (1u64 << (b - 1)));
        }
    }
}
