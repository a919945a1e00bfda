//! Linear resistor.

use crate::mna::{register_conductance, stamp_conductance, EvalCtx};
use crate::netlist::Node;
use crate::workspace::{PatternBuilder, StampWorkspace};
use crate::Device;

/// A linear two-terminal resistor.
///
/// # Example
///
/// ```
/// use circuit::{Circuit, GROUND};
/// use circuit::devices::Resistor;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Resistor::new("r_load", a, GROUND, 50.0));
/// ```
#[derive(Debug, Clone)]
pub struct Resistor {
    label: String,
    a: Node,
    b: Node,
    conductance: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive and finite — a zero or negative
    /// resistance is a netlist construction bug, not a runtime condition.
    pub fn new(label: impl Into<String>, a: Node, b: Node, ohms: f64) -> Self {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive and finite, got {ohms}"
        );
        Resistor {
            label: label.into(),
            a,
            b,
            conductance: 1.0 / ohms,
        }
    }

    /// Resistance in ohms.
    pub fn resistance(&self) -> f64 {
        1.0 / self.conductance
    }
}

impl Device for Resistor {
    fn label(&self) -> &str {
        &self.label
    }

    fn register(&self, pb: &mut PatternBuilder) {
        register_conductance(pb, self.a, self.b);
    }

    fn stamp(&self, _ctx: &EvalCtx<'_>, ws: &mut StampWorkspace) {
        stamp_conductance(ws, self.a, self.b, self.conductance);
    }

    fn stamp_rhs(&self, _ctx: &EvalCtx<'_>, _ws: &mut StampWorkspace) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::Mode;
    use crate::netlist::GROUND;

    #[test]
    fn stamps_conductance() {
        let r = Resistor::new("r", Node::from_raw(1), GROUND, 100.0);
        assert_eq!(r.label(), "r");
        assert_eq!(r.resistance(), 100.0);
        let mut ws = StampWorkspace::dense(1);
        let x = [0.0];
        let ctx = EvalCtx {
            x: &x,
            n_nodes: 2,
            mode: Mode::Dc,
        };
        r.stamp(&ctx, &mut ws);
        assert!((ws.value_at(0, 0) - 0.01).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_resistance() {
        Resistor::new("bad", GROUND, GROUND, 0.0);
    }
}
