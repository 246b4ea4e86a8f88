//! Figure 21 (Appendix): hierarchical policy timeline with weighted
//! fairness across entities and FIFO *within* each entity. Within an
//! entity, earlier jobs receive the entity's full share before later ones
//! see any resources; under high load, low-weight entities' jobs starve.
//!
//! Run: `cargo run --release -p gavel-experiments --bin gavel-exp -- fig21_hier_fifo`

use crate::figs::hier_timeline;
use crate::print_table;
use gavel_policies::EntityPolicy;

pub fn run(_scale: crate::Scale) {
    let steps = hier_timeline::run(EntityPolicy::Fifo);

    let mut rows = Vec::new();
    for step in &steps {
        let total: f64 = step.norm.iter().sum::<f64>().max(1e-12);
        let mut cells = vec![step.timestep.to_string(), step.n.to_string()];
        // Per-entity share plus how concentrated it is on the entity's
        // FIFO head job.
        for e in 0..3usize {
            let members = step.members(e);
            if members.is_empty() {
                cells.push("-".into());
                cells.push("-".into());
                continue;
            }
            let entity_total: f64 = members.iter().map(|&i| step.norm[i]).sum();
            let head = members[0];
            let head_frac = if entity_total > 1e-9 {
                step.norm[head] / entity_total
            } else {
                0.0
            };
            cells.push(format!("{:.2}", entity_total / total));
            cells.push(format!("{:.2}", head_frac));
        }
        rows.push(cells);
    }
    print_table(
        "Figure 21: hierarchical fairness + FIFO-within-entity timeline",
        &[
            "timestep",
            "jobs",
            "e0 share",
            "e0 head frac",
            "e1 share",
            "e1 head frac",
            "e2 share",
            "e2 head frac",
        ],
        &rows,
    );
    println!(
        "\nShape check (paper): entity shares respect the 1:2:3 weights while \
         each entity's earliest job holds (nearly) its entire share; later jobs \
         in low-weight entities receive nothing under high load."
    );
}
