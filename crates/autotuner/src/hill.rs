//! Hill-climbing baseline searcher.
//!
//! A baseline against which the EA's population diversity can be shown to
//! matter on rugged algorithmic-choice landscapes; it is *not* part of the
//! two-level pipeline itself.

use crate::ea::TuningResult;
use crate::objective::Objective;
use intune_core::{ConfigSpace, Configuration, ExecutionReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// First-improvement stochastic hill climber with restart on stagnation.
#[derive(Debug, Clone, Copy)]
pub struct HillClimber {
    /// Total evaluation budget.
    pub budget: usize,
    /// Per-gene mutation rate of each proposal.
    pub mutation_rate: f64,
    /// Restart from a random point after this many rejected proposals.
    pub patience: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HillClimber {
    /// A climber with the same evaluation budget as a quick EA run.
    pub fn with_budget(budget: usize, seed: u64) -> Self {
        HillClimber {
            budget,
            mutation_rate: 0.3,
            patience: 40,
            seed,
        }
    }

    /// Runs the climb.
    ///
    /// # Panics
    /// Panics if the space is empty or the budget is zero.
    pub fn tune<F>(&self, space: &ConfigSpace, objective: Objective, mut eval: F) -> TuningResult
    where
        F: FnMut(&Configuration) -> ExecutionReport,
    {
        assert!(!space.is_empty(), "cannot tune an empty space");
        assert!(self.budget > 0, "budget must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut current = space.default_config();
        let mut current_report = eval(&current);
        let mut best = current.clone();
        let mut best_report = current_report;
        let mut evaluations = 1usize;
        let mut stale = 0usize;
        let mut history = vec![best_report.cost];

        while evaluations < self.budget {
            let proposal = if stale >= self.patience {
                stale = 0;
                current = space.random(&mut rng);
                current_report = eval(&current);
                evaluations += 1;
                if objective.better(&current_report, &best_report) {
                    best = current.clone();
                    best_report = current_report;
                }
                history.push(best_report.cost);
                continue;
            } else {
                space.mutate(&current, self.mutation_rate, &mut rng)
            };
            let report = eval(&proposal);
            evaluations += 1;
            if objective.better(&report, &current_report) {
                current = proposal;
                current_report = report;
                stale = 0;
                if objective.better(&current_report, &best_report) {
                    best = current.clone();
                    best_report = current_report;
                }
            } else {
                stale += 1;
            }
            history.push(best_report.cost);
        }

        TuningResult {
            best,
            best_report,
            history,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climbs_to_optimum_on_smooth_landscape() {
        let space = ConfigSpace::builder().int("x", -500, 500).build();
        let hc = HillClimber::with_budget(600, 5);
        let result = hc.tune(&space, Objective::cost_only(), |cfg| {
            ExecutionReport::of_cost((cfg.int(0) as f64 - 42.0).abs())
        });
        assert!(
            result.best_report.cost < 20.0,
            "cost {}",
            result.best_report.cost
        );
        assert_eq!(result.evaluations, 600);
    }

    #[test]
    fn history_monotone_for_best_so_far() {
        let space = ConfigSpace::builder().int("x", 0, 1000).build();
        let hc = HillClimber::with_budget(200, 1);
        let result = hc.tune(&space, Objective::cost_only(), |cfg| {
            ExecutionReport::of_cost(cfg.int(0) as f64)
        });
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let space = ConfigSpace::builder()
            .int("x", 0, 100)
            .switch("s", 4)
            .build();
        let run = || {
            HillClimber::with_budget(150, 3).tune(&space, Objective::cost_only(), |cfg| {
                ExecutionReport::of_cost(cfg.int(0) as f64 + cfg.choice(1) as f64)
            })
        };
        assert_eq!(run().best, run().best);
    }
}
