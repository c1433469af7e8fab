//! The 13 bin-packing approximation heuristics.
//!
//! Online rules differ in which open bin receives the next item:
//!
//! * **NextFit** — only the most recently opened bin is considered.
//! * **FirstFit** — the lowest-indexed bin with room.
//! * **LastFit** — the highest-indexed bin with room.
//! * **BestFit** — the fullest bin with room (tightest fit).
//! * **WorstFit** — the emptiest bin with room.
//! * **AlmostWorstFit** — the *second*-emptiest bin with room (falls back to
//!   the emptiest when only one fits).
//!
//! Each has a **Decreasing** variant that first sorts items descending
//! (off-line), and **ModifiedFirstFitDecreasing** implements the
//! Johnson–Garey refinement of FFD. Costs charge one unit per bin probed
//! plus `n log n` for presorting, so speed and packing quality trade off.

/// Unit bin capacity.
pub const CAPACITY: f64 = 1.0;
/// Numeric slack when testing whether an item fits.
const EPS: f64 = 1e-9;

/// Whether `x` is an item [`Heuristic::pack`] accepts: in `(0, CAPACITY]`
/// up to the fit slack. NaN is not.
pub fn item_fits(x: f64) -> bool {
    x > 0.0 && x <= CAPACITY + EPS
}

/// The result of packing: per-bin loads, item→bin assignment, and cost.
#[derive(Debug, Clone)]
pub struct Packing {
    /// Load of each bin (sum of items assigned to it).
    pub bins: Vec<f64>,
    /// `assignment[i]` = bin index of item `i`.
    pub assignment: Vec<usize>,
    /// Deterministic abstract cost of producing the packing.
    pub cost: f64,
}

impl Packing {
    /// The paper's accuracy metric: average occupied fraction over bins.
    pub fn occupancy(&self) -> f64 {
        if self.bins.is_empty() {
            return 1.0;
        }
        self.bins.iter().sum::<f64>() / (CAPACITY * self.bins.len() as f64)
    }

    /// Validates structural invariants (every item assigned, no bin over
    /// capacity); used by tests and property tests.
    ///
    /// # Panics
    /// Panics if an invariant is violated.
    pub fn assert_valid(&self, num_items: usize) {
        assert_eq!(self.assignment.len(), num_items, "every item assigned");
        for (i, &b) in self.assignment.iter().enumerate() {
            assert!(b < self.bins.len(), "item {i} assigned to missing bin {b}");
        }
        for (b, load) in self.bins.iter().enumerate() {
            assert!(*load <= CAPACITY + 1e-6, "bin {b} over capacity: {load}");
        }
    }
}

/// The 13 heuristics, in the order the paper lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Almost-worst-fit (second-emptiest bin).
    AlmostWorstFit,
    /// Almost-worst-fit on descending items.
    AlmostWorstFitDecreasing,
    /// Best-fit (tightest bin).
    BestFit,
    /// Best-fit on descending items.
    BestFitDecreasing,
    /// First-fit (lowest-indexed bin).
    FirstFit,
    /// First-fit on descending items.
    FirstFitDecreasing,
    /// Last-fit (highest-indexed bin).
    LastFit,
    /// Last-fit on descending items.
    LastFitDecreasing,
    /// Johnson–Garey modified first-fit-decreasing.
    ModifiedFirstFitDecreasing,
    /// Next-fit (only the open bin).
    NextFit,
    /// Next-fit on descending items.
    NextFitDecreasing,
    /// Worst-fit (emptiest bin).
    WorstFit,
    /// Worst-fit on descending items.
    WorstFitDecreasing,
}

impl Heuristic {
    /// All heuristics in paper order (selector choice indices).
    pub const ALL: [Heuristic; 13] = [
        Heuristic::AlmostWorstFit,
        Heuristic::AlmostWorstFitDecreasing,
        Heuristic::BestFit,
        Heuristic::BestFitDecreasing,
        Heuristic::FirstFit,
        Heuristic::FirstFitDecreasing,
        Heuristic::LastFit,
        Heuristic::LastFitDecreasing,
        Heuristic::ModifiedFirstFitDecreasing,
        Heuristic::NextFit,
        Heuristic::NextFitDecreasing,
        Heuristic::WorstFit,
        Heuristic::WorstFitDecreasing,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::AlmostWorstFit => "AWF",
            Heuristic::AlmostWorstFitDecreasing => "AWFD",
            Heuristic::BestFit => "BF",
            Heuristic::BestFitDecreasing => "BFD",
            Heuristic::FirstFit => "FF",
            Heuristic::FirstFitDecreasing => "FFD",
            Heuristic::LastFit => "LF",
            Heuristic::LastFitDecreasing => "LFD",
            Heuristic::ModifiedFirstFitDecreasing => "MFFD",
            Heuristic::NextFit => "NF",
            Heuristic::NextFitDecreasing => "NFD",
            Heuristic::WorstFit => "WF",
            Heuristic::WorstFitDecreasing => "WFD",
        }
    }

    fn is_decreasing(self) -> bool {
        matches!(
            self,
            Heuristic::AlmostWorstFitDecreasing
                | Heuristic::BestFitDecreasing
                | Heuristic::FirstFitDecreasing
                | Heuristic::LastFitDecreasing
                | Heuristic::ModifiedFirstFitDecreasing
                | Heuristic::NextFitDecreasing
                | Heuristic::WorstFitDecreasing
        )
    }

    /// Packs `items` (each in `(0, CAPACITY]`) into unit bins.
    ///
    /// # Panics
    /// Panics if any item is non-positive or exceeds the capacity.
    pub fn pack(self, items: &[f64]) -> Packing {
        for (i, &x) in items.iter().enumerate() {
            assert!(item_fits(x), "item {i} = {x} outside (0, {CAPACITY}]");
        }
        let mut cost = 0.0;
        // Order of placement: original or descending.
        let order: Vec<usize> = if self.is_decreasing() {
            let mut idx: Vec<usize> = (0..items.len()).collect();
            idx.sort_by(|&a, &b| {
                items[b]
                    .partial_cmp(&items[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            cost += (items.len().max(2) as f64) * (items.len().max(2) as f64).log2();
            idx
        } else {
            (0..items.len()).collect()
        };

        if self == Heuristic::ModifiedFirstFitDecreasing {
            return mffd(items, order, cost);
        }

        let mut bins: Vec<f64> = Vec::new();
        let mut assignment = vec![usize::MAX; items.len()];
        for &i in &order {
            let size = items[i];
            let chosen = match self {
                Heuristic::NextFit | Heuristic::NextFitDecreasing => {
                    cost += 1.0;
                    bins.last()
                        .filter(|&&load| load + size <= CAPACITY + EPS)
                        .map(|_| bins.len() - 1)
                }
                Heuristic::FirstFit | Heuristic::FirstFitDecreasing => {
                    let mut found = None;
                    for (b, load) in bins.iter().enumerate() {
                        cost += 1.0;
                        if load + size <= CAPACITY + EPS {
                            found = Some(b);
                            break;
                        }
                    }
                    found
                }
                Heuristic::LastFit | Heuristic::LastFitDecreasing => {
                    let mut found = None;
                    for (b, load) in bins.iter().enumerate().rev() {
                        cost += 1.0;
                        if load + size <= CAPACITY + EPS {
                            found = Some(b);
                            break;
                        }
                    }
                    found
                }
                Heuristic::BestFit | Heuristic::BestFitDecreasing => {
                    let mut best: Option<(usize, f64)> = None;
                    for (b, &load) in bins.iter().enumerate() {
                        cost += 1.0;
                        if load + size <= CAPACITY + EPS && best.is_none_or(|(_, l)| load > l) {
                            best = Some((b, load));
                        }
                    }
                    best.map(|(b, _)| b)
                }
                Heuristic::WorstFit | Heuristic::WorstFitDecreasing => {
                    let mut worst: Option<(usize, f64)> = None;
                    for (b, &load) in bins.iter().enumerate() {
                        cost += 1.0;
                        if load + size <= CAPACITY + EPS && worst.is_none_or(|(_, l)| load < l) {
                            worst = Some((b, load));
                        }
                    }
                    worst.map(|(b, _)| b)
                }
                Heuristic::AlmostWorstFit | Heuristic::AlmostWorstFitDecreasing => {
                    // Track the two emptiest fitting bins; take the second.
                    let mut first: Option<(usize, f64)> = None;
                    let mut second: Option<(usize, f64)> = None;
                    for (b, &load) in bins.iter().enumerate() {
                        cost += 1.0;
                        if load + size <= CAPACITY + EPS {
                            if first.is_none_or(|(_, l)| load < l) {
                                second = first;
                                first = Some((b, load));
                            } else if second.is_none_or(|(_, l)| load < l) {
                                second = Some((b, load));
                            }
                        }
                    }
                    second.or(first).map(|(b, _)| b)
                }
                Heuristic::ModifiedFirstFitDecreasing => unreachable!("handled above"),
            };
            let b = match chosen {
                Some(b) => b,
                None => {
                    bins.push(0.0);
                    cost += 1.0;
                    bins.len() - 1
                }
            };
            bins[b] += size;
            assignment[i] = b;
        }

        Packing {
            bins,
            assignment,
            cost,
        }
    }
}

/// Johnson–Garey Modified First-Fit-Decreasing. Items are classed by size —
/// A ∈ (1/2, 1], B ∈ (1/3, 1/2], D = rest. Each A item opens a bin; a
/// dedicated pass tries to complement A bins (smallest A first) with pairs
/// of small items before the FFD cleanup pass. Behaves like FFD on most
/// inputs but beats it on the adversarial distributions MFFD was designed
/// for — giving the autotuner a genuinely distinct choice.
fn mffd(items: &[f64], order: Vec<usize>, mut cost: f64) -> Packing {
    let mut bins: Vec<f64> = Vec::new();
    let mut assignment = vec![usize::MAX; items.len()];

    // Phase 1: A items (> 1/2) each open their own bin, in decreasing order.
    let mut rest: Vec<usize> = Vec::new();
    for &i in &order {
        cost += 1.0;
        if items[i] > CAPACITY / 2.0 {
            bins.push(items[i]);
            assignment[i] = bins.len() - 1;
        } else {
            rest.push(i); // still in decreasing order
        }
    }

    // Phase 2: walk A bins from the last (smallest A item, largest gap).
    // Try to place the *smallest* remaining item plus the *largest* other
    // remaining item that fits alongside it.
    let a_bins = bins.len();
    let mut placed = vec![false; rest.len()];
    for b in (0..a_bins).rev() {
        let gap = CAPACITY - bins[b];
        // Smallest unplaced item (rest is descending, so scan from the back).
        let smallest = match (0..rest.len()).rev().find(|&r| !placed[r]) {
            Some(r) => r,
            None => break,
        };
        cost += 1.0;
        if items[rest[smallest]] > gap + EPS {
            continue; // even the smallest item does not fit
        }
        // Largest other item such that the pair fits.
        let pair = (0..rest.len()).find(|&r| {
            cost += 1.0;
            !placed[r] && r != smallest && items[rest[r]] + items[rest[smallest]] <= gap + EPS
        });
        if let Some(r) = pair {
            bins[b] += items[rest[r]] + items[rest[smallest]];
            assignment[rest[r]] = b;
            assignment[rest[smallest]] = b;
            placed[r] = true;
            placed[smallest] = true;
        }
    }

    // Phase 3: first-fit the remaining items (still decreasing).
    for r in 0..rest.len() {
        if placed[r] {
            continue;
        }
        let i = rest[r];
        let size = items[i];
        let mut found = None;
        for (b, load) in bins.iter().enumerate() {
            cost += 1.0;
            if load + size <= CAPACITY + EPS {
                found = Some(b);
                break;
            }
        }
        let b = found.unwrap_or_else(|| {
            bins.push(0.0);
            cost += 1.0;
            bins.len() - 1
        });
        bins[b] += size;
        assignment[i] = b;
    }

    Packing {
        bins,
        assignment,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items_mixed() -> Vec<f64> {
        (0..200)
            .map(|i| 0.05 + ((i * 61) % 90) as f64 / 100.0)
            .collect()
    }

    #[test]
    fn all_heuristics_produce_valid_packings() {
        let items = items_mixed();
        for h in Heuristic::ALL {
            let p = h.pack(&items);
            p.assert_valid(items.len());
            // Lower bound: total mass.
            let lower = items.iter().sum::<f64>().ceil() as usize;
            assert!(
                p.bins.len() >= lower,
                "{}: {} bins below mass bound {lower}",
                h.name(),
                p.bins.len()
            );
        }
    }

    #[test]
    fn next_fit_cheapest_best_fit_tightest() {
        let items = items_mixed();
        let nf = Heuristic::NextFit.pack(&items);
        let bf = Heuristic::BestFit.pack(&items);
        assert!(nf.cost < bf.cost, "NF {} vs BF {}", nf.cost, bf.cost);
        assert!(
            bf.bins.len() <= nf.bins.len(),
            "BF bins {} vs NF bins {}",
            bf.bins.len(),
            nf.bins.len()
        );
    }

    #[test]
    fn decreasing_variants_improve_occupancy_on_adversarial_input() {
        // Classic FFD-friendly distribution: many just-over-half items mixed
        // with small fillers arriving in bad (ascending) order.
        let mut items: Vec<f64> = Vec::new();
        for i in 0..50 {
            items.push(0.26 + (i % 5) as f64 * 0.002);
            items.push(0.52 + (i % 7) as f64 * 0.003);
        }
        items.sort_by(|a, b| a.partial_cmp(b).unwrap()); // worst case order for FF
        let ff = Heuristic::FirstFit.pack(&items);
        let ffd = Heuristic::FirstFitDecreasing.pack(&items);
        assert!(
            ffd.occupancy() >= ff.occupancy(),
            "FFD {} vs FF {}",
            ffd.occupancy(),
            ff.occupancy()
        );
    }

    #[test]
    fn ffd_meets_classic_guarantee() {
        // FFD uses at most 11/9 OPT + 1 bins; check against the mass bound.
        let items = items_mixed();
        let p = Heuristic::FirstFitDecreasing.pack(&items);
        let opt_lower = items.iter().sum::<f64>(); // OPT >= total mass
        assert!(
            (p.bins.len() as f64) <= 11.0 / 9.0 * opt_lower.ceil() + 1.0,
            "FFD used {} bins vs bound {}",
            p.bins.len(),
            11.0 / 9.0 * opt_lower.ceil() + 1.0
        );
    }

    #[test]
    fn mffd_valid_and_competitive_with_ffd() {
        // MFFD's target distribution: A items slightly over 1/2, D items
        // slightly over 1/4 — FFD wastes the A-bin gaps.
        let mut items = Vec::new();
        for i in 0..40 {
            items.push(0.51 + (i % 4) as f64 * 0.01);
            items.push(0.26 + (i % 3) as f64 * 0.01);
            items.push(0.22 - (i % 3) as f64 * 0.01);
        }
        let mffd = Heuristic::ModifiedFirstFitDecreasing.pack(&items);
        let ffd = Heuristic::FirstFitDecreasing.pack(&items);
        mffd.assert_valid(items.len());
        assert!(
            mffd.bins.len() <= ffd.bins.len(),
            "MFFD {} bins vs FFD {}",
            mffd.bins.len(),
            ffd.bins.len()
        );
    }

    #[test]
    fn awf_differs_from_wf() {
        // Three open bins with distinct loads; AWF picks the second-emptiest.
        let items = vec![0.5, 0.6, 0.7, 0.2];
        let wf = Heuristic::WorstFit.pack(&items);
        let awf = Heuristic::AlmostWorstFit.pack(&items);
        // WF puts 0.2 with 0.5 (emptiest), AWF with 0.6 (second-emptiest).
        assert_eq!(wf.assignment[3], wf.assignment[0]);
        assert_eq!(awf.assignment[3], awf.assignment[1]);
    }

    #[test]
    fn single_oversize_item_rejected() {
        let result = std::panic::catch_unwind(|| Heuristic::FirstFit.pack(&[1.5]));
        assert!(result.is_err());
    }

    #[test]
    fn empty_input_gives_empty_packing() {
        for h in Heuristic::ALL {
            let p = h.pack(&[]);
            assert!(p.bins.is_empty());
            assert_eq!(p.occupancy(), 1.0);
        }
    }

    #[test]
    fn perfect_fit_reaches_full_occupancy() {
        let items = vec![0.5; 10];
        let p = Heuristic::FirstFitDecreasing.pack(&items);
        assert_eq!(p.bins.len(), 5);
        assert!((p.occupancy() - 1.0).abs() < 1e-9);
    }
}
