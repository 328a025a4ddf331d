//! The planner's discrete choice space: filter × static order × kernel.
//!
//! The local-candidate method is fixed to [`LcMethod::Intersect`] — the
//! study's Section 7 recommendation and the only method where the
//! intersection kernel matters — so a combo is one of 7 filters × 6
//! static orders × 4 kernels = 168 candidate pipelines. The adaptive
//! order is excluded (it runs its own sequential engine and ignores the
//! kernel choice), as is `Fixed` (no heuristic to score).

use sm_intersect::IntersectKind;
use sm_match::{FilterKind, LcMethod, OrderKind, Pipeline};

/// The six static ordering heuristics the planner scores. A thin `Copy`
/// mirror of [`OrderKind`] minus the variants that are not plannable
/// (`Adaptive` is engine-switching and sequential-only; `Fixed` carries a
/// caller-supplied order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComboOrder {
    /// QuickSI's spanning-tree order.
    QuickSi,
    /// GraphQL's greedy left-deep order.
    GraphQl,
    /// CFL's core-forest-leaf decomposition order.
    Cfl,
    /// CECI's BFS order.
    Ceci,
    /// RI's structure-first order.
    Ri,
    /// VF2++'s BFS-level order.
    Vf2pp,
}

impl ComboOrder {
    /// All plannable orders, in registry order.
    pub const ALL: [ComboOrder; 6] = [
        ComboOrder::QuickSi,
        ComboOrder::GraphQl,
        ComboOrder::Cfl,
        ComboOrder::Ceci,
        ComboOrder::Ri,
        ComboOrder::Vf2pp,
    ];

    /// The [`OrderKind`] this selection compiles to.
    pub fn kind(self) -> OrderKind {
        match self {
            ComboOrder::QuickSi => OrderKind::QuickSi,
            ComboOrder::GraphQl => OrderKind::GraphQl,
            ComboOrder::Cfl => OrderKind::Cfl,
            ComboOrder::Ceci => OrderKind::Ceci,
            ComboOrder::Ri => OrderKind::Ri,
            ComboOrder::Vf2pp => OrderKind::Vf2pp,
        }
    }

    /// Stable display name (matches [`OrderKind::name`]).
    pub fn name(self) -> &'static str {
        self.kind().name()
    }
}

/// One point in the planner's choice space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanCombo {
    /// Filtering method.
    pub filter: FilterKind,
    /// Static matching-order heuristic.
    pub order: ComboOrder,
    /// Set-intersection kernel for local candidates.
    pub kernel: IntersectKind,
}

const KERNELS: [IntersectKind; 4] = [
    IntersectKind::Merge,
    IntersectKind::Galloping,
    IntersectKind::Hybrid,
    IntersectKind::Bsr,
];

impl PlanCombo {
    /// Every combo, in a stable enumeration order (`7 × 6 × 4 = 168`).
    pub fn all() -> Vec<PlanCombo> {
        let mut v = Vec::with_capacity(168);
        for filter in FilterKind::all() {
            for order in ComboOrder::ALL {
                for kernel in KERNELS {
                    v.push(PlanCombo {
                        filter,
                        order,
                        kernel,
                    });
                }
            }
        }
        v
    }

    /// Dense identifier in `0..168`, stable across runs — the key the
    /// feedback store serializes.
    pub fn id(&self) -> u16 {
        let f = FilterKind::all()
            .iter()
            .position(|k| *k == self.filter)
            .unwrap() as u16;
        let o = ComboOrder::ALL
            .iter()
            .position(|k| *k == self.order)
            .unwrap() as u16;
        let k = KERNELS.iter().position(|k| *k == self.kernel).unwrap() as u16;
        f * 24 + o * 4 + k
    }

    /// Inverse of [`PlanCombo::id`].
    pub fn from_id(id: u16) -> Option<PlanCombo> {
        if id >= 168 {
            return None;
        }
        Some(PlanCombo {
            filter: FilterKind::all()[(id / 24) as usize],
            order: ComboOrder::ALL[((id / 4) % 6) as usize],
            kernel: KERNELS[(id % 4) as usize],
        })
    }

    /// Display label, e.g. `"GQL/RI/Hybrid"` — also the grammar
    /// [`PlanCombo::parse`] accepts.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.filter.name(),
            self.order.name(),
            self.kernel.name()
        )
    }

    /// Parse a `"FILTER/ORDER/KERNEL"` label (case-insensitive; the
    /// kernel also accepts `bsr` for `QFilter`). The `experiments planner`
    /// panel is written in these labels.
    pub fn parse(s: &str) -> Option<PlanCombo> {
        let mut parts = s.split('/');
        let (f, o, k) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() {
            return None;
        }
        let filter = FilterKind::all()
            .into_iter()
            .find(|x| x.name().eq_ignore_ascii_case(f))?;
        let order = ComboOrder::ALL
            .into_iter()
            .find(|x| x.name().eq_ignore_ascii_case(o))?;
        let kernel = KERNELS.into_iter().find(|x| {
            x.name().eq_ignore_ascii_case(k)
                || (*x == IntersectKind::Bsr && k.eq_ignore_ascii_case("bsr"))
        })?;
        Some(PlanCombo {
            filter,
            order,
            kernel,
        })
    }

    /// Compile this combo into a runnable [`Pipeline`] (intersection-based
    /// local candidates, no VF2++ runtime rule — the kernel choice rides
    /// in [`sm_match::MatchConfig::intersect`]).
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(
            self.label(),
            self.filter,
            self.order.kind(),
            LcMethod::Intersect,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combo_space_is_168_with_dense_stable_ids() {
        let all = PlanCombo::all();
        assert_eq!(all.len(), 168);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.id() as usize, i);
            assert_eq!(PlanCombo::from_id(c.id()), Some(*c));
        }
        assert_eq!(PlanCombo::from_id(168), None);
    }

    #[test]
    fn label_roundtrips_through_parse() {
        for c in PlanCombo::all() {
            assert_eq!(PlanCombo::parse(&c.label()), Some(c), "{}", c.label());
        }
        assert_eq!(
            PlanCombo::parse("gql/ri/hybrid"),
            Some(PlanCombo {
                filter: FilterKind::GraphQl,
                order: ComboOrder::Ri,
                kernel: IntersectKind::Hybrid,
            })
        );
        // bsr alias for the QFilter kernel
        assert_eq!(
            PlanCombo::parse("LDF/QSI/bsr").map(|c| c.kernel),
            Some(IntersectKind::Bsr)
        );
        assert_eq!(PlanCombo::parse("GQL/RI"), None);
        assert_eq!(PlanCombo::parse("GQL/RI/Hybrid/extra"), None);
        assert_eq!(PlanCombo::parse("NOPE/RI/Hybrid"), None);
    }
}
