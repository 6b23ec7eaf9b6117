//! Integer overflow is a gate failure, with one diagnostic, on both
//! evaluators.
//!
//! `i64` arithmetic that leaves the range must neither wrap (a release
//! build's default) nor panic (a debug build's, and `div`/`mod` by `-1` in
//! any build): the action's gate fails with ``integer overflow in `Main` ``,
//! and the VM and the reference interpreter agree on it character for
//! character. The operands come from globals, so the constant folder —
//! which leaves overflow to runtime — cannot see them.

use inseq_kernel::ActionOutcome;
use inseq_lang::serial::parse_spec;

/// A spec whose `Main` assigns `expr` to a local, with `g1 = i64::MIN` and
/// `g2 = i64::MAX`.
fn spec_src(expr: &str) -> String {
    format!(
        r#"(spec
  (globals ("g1" int (i {min})) ("g2" int (i {max})))
  (main "Main")
  (pending ("Main"))
  (action "Main" () (("t" int)) ((assign "t" {expr})))
)"#,
        min = i64::MIN,
        max = i64::MAX,
    )
}

/// Both evaluators' outcomes for `Main` at the spec's initial store.
fn outcomes(expr: &str) -> (ActionOutcome, ActionOutcome) {
    let built = parse_spec(&spec_src(expr))
        .expect("spec parses")
        .build()
        .expect("spec builds");
    let main = built.action("Main").expect("Main exists");
    let store = &built.init.globals;
    let vm = main.eval_compiled(store, &[]).expect("Main compiles");
    (vm, main.eval_interp(store, &[]))
}

fn assert_overflow_fails(expr: &str) {
    let (vm, interp) = outcomes(expr);
    let expected = ActionOutcome::Failure {
        reason: "integer overflow in `Main`".into(),
    };
    assert_eq!(vm, expected, "VM on {expr}");
    assert_eq!(interp, expected, "interpreter on {expr}");
}

#[test]
fn min_div_minus_one_fails_the_gate() {
    assert_overflow_fails(r#"(bin div (var "g1") (const (i -1)))"#);
}

#[test]
fn min_mod_minus_one_fails_the_gate() {
    assert_overflow_fails(r#"(bin mod (var "g1") (const (i -1)))"#);
}

#[test]
fn max_plus_one_fails_the_gate() {
    assert_overflow_fails(r#"(bin add (var "g2") (const (i 1)))"#);
}

#[test]
fn negating_min_fails_the_gate() {
    assert_overflow_fails(r#"(neg (var "g1"))"#);
}

#[test]
fn summing_past_max_fails_the_gate() {
    assert_overflow_fails(r#"(sum (with (with (const (vset)) (var "g2")) (const (i 1))))"#);
}

#[test]
fn in_range_arithmetic_on_the_same_globals_still_succeeds() {
    for expr in [
        r#"(bin div (var "g1") (const (i 1)))"#,
        r#"(bin mod (var "g1") (const (i 2)))"#,
        r#"(bin add (var "g2") (const (i -1)))"#,
        r#"(neg (var "g2"))"#,
    ] {
        let (vm, interp) = outcomes(expr);
        assert_eq!(vm, interp, "{expr}");
        assert!(
            matches!(vm, ActionOutcome::Transitions(ref ts) if ts.len() == 1),
            "{expr}: {vm:?}"
        );
    }
}
