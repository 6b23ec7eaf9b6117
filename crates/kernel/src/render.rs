//! Rendering executions in the style of the paper's Fig. 2: each
//! configuration as a "cloud" of pending asyncs, each transition labelled by
//! the pending async that fired.
//!
//! ```text
//! {Main()}
//!   --Main()-->
//! {Broadcast(1), Broadcast(2), Collect(1), Collect(2)}
//!   --Broadcast(1)-->
//! …
//! ```

use std::fmt::Write as _;

use crate::config::{Config, Step};
use crate::explore::{Execution, Trace};
use crate::program::GlobalSchema;

/// Options for [`render_execution`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderOptions {
    /// Also print the global store of every configuration.
    pub show_stores: bool,
}

/// Renders a configuration as a Fig. 2-style cloud of pending asyncs.
#[must_use]
pub fn render_config(config: &Config, schema: &GlobalSchema, options: RenderOptions) -> String {
    let mut out = String::new();
    out.push('{');
    for (i, pa) in config.pending.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{pa}");
    }
    out.push('}');
    if options.show_stores {
        let _ = write!(out, "  @ {}", config.globals.display_with(schema));
    }
    out
}

/// Renders a whole execution, one configuration per line, with the fired
/// pending asyncs as arrow labels between them.
#[must_use]
pub fn render_execution(exec: &Execution, schema: &GlobalSchema, options: RenderOptions) -> String {
    render_steps(&exec.steps, schema, options)
}

/// Renders a witness trace in the same Fig. 2 style as
/// [`render_execution`] — the full firing sequence, not the capped one-line
/// form of `Trace`'s `Display`.
#[must_use]
pub fn render_trace(trace: &Trace, schema: &GlobalSchema, options: RenderOptions) -> String {
    render_steps(&trace.steps, schema, options)
}

fn render_steps(steps: &[Step], schema: &GlobalSchema, options: RenderOptions) -> String {
    let mut out = String::new();
    let Some(first) = steps.first() else {
        return "(empty execution)".into();
    };
    let _ = writeln!(out, "{}", render_config(&first.before, schema, options));
    for step in steps {
        let _ = writeln!(out, "  --{}-->", step.fired);
        let _ = writeln!(out, "{}", render_config(&step.after, schema, options));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::counter_program;
    use crate::explore::Explorer;

    #[test]
    fn renders_clouds_and_arrows() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let exec = exp.terminating_executions(&p, 1).remove(0);
        let text = render_execution(&exec, p.schema(), RenderOptions::default());
        assert!(text.starts_with("{Main()}"));
        assert!(text.contains("--Main()-->"));
        assert!(text.contains("Inc()"));
        assert!(
            text.trim_end().ends_with("{}"),
            "ends in the empty cloud: {text}"
        );
    }

    #[test]
    fn store_display_is_optional() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let exec = exp.terminating_executions(&p, 1).remove(0);
        let text = render_execution(&exec, p.schema(), RenderOptions { show_stores: true });
        assert!(text.contains("counter ="));
    }

    #[test]
    fn trace_renders_like_its_execution() {
        let p = counter_program();
        let init = p.initial_config(vec![]).unwrap();
        let exp = Explorer::new(&p).explore([init]).unwrap();
        let exec = exp.terminating_executions(&p, 1).remove(0);
        let trace: crate::explore::Trace = exec.clone().into();
        assert_eq!(
            render_trace(&trace, p.schema(), RenderOptions::default()),
            render_execution(&exec, p.schema(), RenderOptions::default())
        );
    }

    #[test]
    fn empty_execution_is_handled() {
        let p = counter_program();
        let text = render_execution(
            &Execution { steps: vec![] },
            p.schema(),
            RenderOptions::default(),
        );
        assert_eq!(text, "(empty execution)");
    }
}
