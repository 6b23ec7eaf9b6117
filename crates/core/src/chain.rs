//! Iterated IS applications (§5.3 of the paper).
//!
//! Several case studies prefer repeated IS applications over a single one:
//! an action eliminated in one application disappears from the pool of
//! actions against which left-moverness must be established in the next,
//! which weakens the required abstraction gates. An [`IsChain`] threads the
//! transformed program of each application into the next and reports
//! per-step statistics.

use inseq_kernel::Program;

use crate::rule::{IsApplication, IsReport, IsViolation};

/// A sequence of IS applications, each operating on the program produced by
/// the previous one.
#[derive(Debug, Default)]
pub struct IsChain {
    steps: Vec<IsApplication>,
}

/// The outcome of running a chain: the final program plus one report per
/// application (the `#IS` column of Table 1 is `reports.len()`).
#[derive(Debug)]
pub struct ChainOutcome {
    /// The fully transformed program.
    pub program: Program,
    /// One report per successful application, in order.
    pub reports: Vec<IsReport>,
}

impl IsChain {
    /// Creates an empty chain.
    #[must_use]
    pub fn new() -> Self {
        IsChain::default()
    }

    /// Appends an application. Its `program` field is *replaced* by the
    /// running program when the chain executes, so it may be constructed
    /// against the original program for convenience — but its artifacts must
    /// be valid against the program state at its position in the chain.
    #[must_use]
    pub fn then(mut self, step: IsApplication) -> Self {
        self.steps.push(step);
        self
    }

    /// Number of applications in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the chain has no applications.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Consumes the chain, yielding its applications in order.
    #[must_use]
    pub fn into_steps(self) -> Vec<IsApplication> {
        self.steps
    }

    /// Checks and applies every step in order.
    ///
    /// # Errors
    ///
    /// Propagates the first violated premise, annotated with the step index
    /// via the violation's `Display` (the step's target action names it).
    pub fn run(self) -> Result<ChainOutcome, IsViolation> {
        let start = self.steps.first().map(|step| step.program().clone());
        match start {
            Some(program) => self.run_from(program, IsApplication::check),
            None => Err(empty_chain()),
        }
    }

    /// Checks and applies every step in order from `program`: each step,
    /// the first one included, is rebased onto the running program, checked
    /// by `check` and applied. [`run`](Self::run) is this from the first
    /// step's own program with [`IsApplication::check`]; a caller that
    /// already explored a step's program hands that exploration to
    /// [`IsApplication::check_on`] instead.
    ///
    /// # Errors
    ///
    /// Propagates the first error `check` returns.
    pub fn run_from(
        self,
        mut program: Program,
        mut check: impl FnMut(&IsApplication) -> Result<IsReport, IsViolation>,
    ) -> Result<ChainOutcome, IsViolation> {
        if self.steps.is_empty() {
            return Err(empty_chain());
        }
        let mut reports = Vec::new();
        for step in self.steps {
            let step = step.with_program(program);
            reports.push(check(&step)?);
            program = step.apply();
        }
        Ok(ChainOutcome { program, reports })
    }
}

fn empty_chain() -> IsViolation {
    IsViolation::Structural {
        message: "empty IS chain".into(),
    }
}

impl IsApplication {
    /// Rebases this application onto a different program (used by chains).
    #[must_use]
    pub fn with_program(self, program: Program) -> Self {
        let mut next = self;
        next.set_program(program);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Measure;
    use inseq_kernel::demo::counter_program;
    use inseq_kernel::{
        ActionOutcome, ActionSemantics, GlobalStore, NativeAction, Transition, Value,
    };
    use std::sync::Arc;

    #[test]
    fn empty_chain_is_a_structural_error() {
        let err = IsChain::new().run().unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn len_and_into_steps_roundtrip() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        // The counter's Incs commute; Main' sets the counter to 2 directly.
        let invariant: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
            "Inv",
            0,
            |g: &GlobalStore, _: &[Value]| {
                // k Incs done for k in 0..=2; remaining Incs pending.
                let mut ts = Vec::new();
                for k in 0..=2i64 {
                    let mut created = inseq_kernel::Multiset::new();
                    for _ in k..2 {
                        created.insert(inseq_kernel::PendingAsync::new("Inc", vec![]));
                    }
                    ts.push(Transition::new(g.with(0, Value::Int(k)), created));
                }
                ActionOutcome::Transitions(ts)
            },
        ));
        let replacement: Arc<dyn ActionSemantics> = Arc::new(NativeAction::new(
            "MainSeq",
            0,
            |g: &GlobalStore, _: &[Value]| {
                ActionOutcome::Transitions(vec![Transition::pure(g.with(0, Value::Int(2)))])
            },
        ));
        let app = IsApplication::new(p, "Main")
            .eliminate("Inc")
            .invariant(invariant)
            .replacement(replacement)
            .choice(|t| t.created.distinct().next().cloned())
            .measure(Measure::pending_async_count())
            .instance(init);
        let chain = IsChain::new().then(app);
        assert_eq!(chain.len(), 1);
        assert!(!chain.is_empty());
        let outcome = chain.run().expect("counter IS holds");
        assert_eq!(outcome.reports.len(), 1);
        // The transformed Main has no pending asyncs to Inc.
        let init = outcome.program.initial_config(vec![]).unwrap();
        let exp = inseq_kernel::Explorer::new(&outcome.program)
            .explore([init])
            .unwrap();
        assert_eq!(exp.config_count(), 2, "Main' goes straight to the end");
    }
}
