use super::split::m_remerge;
use crate::remote::ModelId;
use cludistream_gmm::{Gaussian, GmmError, SuffStats};

/// Global identity of a remote component: which site, which of its models,
/// and which component within that model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentKey {
    /// Originating site.
    pub site: u32,
    /// Site-local model id.
    pub model: ModelId,
    /// Component index within the model's mixture.
    pub component: usize,
}

/// A component as held by the coordinator: its Gaussian synopsis, its
/// record weight, and the `M_remerge` score captured when it was merged
/// into its current group (Algorithm 2 compares against this).
#[derive(Debug, Clone)]
pub struct Member {
    /// Identity.
    pub key: ComponentKey,
    /// The component Gaussian.
    pub gaussian: Gaussian,
    /// Records attributed to this component (model count × component
    /// weight).
    pub weight: f64,
    /// `M_remerge(i, Mix)` at merge time.
    pub remerge_at_merge: f64,
}

/// A group of components — one "Gaussian mixture model" node in the
/// coordinator's hierarchy (the father of its members). The root of the
/// paper's tree is the set of groups; each group's children are its member
/// components.
///
/// The group owns its aggregate incrementally: `stats` and `weight` are the
/// left-to-right folds of the members in member order, so appending a
/// member extends them in place and the result is bit-identical to a
/// refold from scratch. Every other change (removal, rescaling) refolds.
#[derive(Debug, Clone)]
pub struct Group {
    /// Stable group identity.
    pub id: u64,
    /// Member components, in fold order.
    members: Vec<Member>,
    /// Running fold of the members' sufficient statistics (each weighted
    /// by `max(weight, 1e-9)`).
    stats: SuffStats,
    /// Running left-to-right sum of the member weights.
    weight: f64,
    /// Moment-matched aggregate of the members (the `(μ_Mix, Σ_Mix)` of
    /// Eq. 6), derived from `stats` after every change.
    aggregate: Option<Gaussian>,
    /// Simplex-refined representative (Sec. 5.2.1), when merge refinement
    /// is enabled. Invalidated by membership changes.
    refined: Option<Gaussian>,
}

impl Group {
    /// Creates a group seeded with one member. The member's
    /// `remerge_at_merge` is left as given.
    pub fn new(id: u64, seed: Member) -> Self {
        let stats = SuffStats::new(seed.gaussian.dim());
        let mut g =
            Group { id, members: vec![seed], stats, weight: 0.0, aggregate: None, refined: None };
        g.recompute();
        g
    }

    /// The member components, in the order the aggregate folds them.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Total record weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of member components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the group has no members (it should then be dropped).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The aggregate Gaussian. Panics if called on an empty group; the
    /// coordinator drops empty groups.
    pub fn aggregate(&self) -> &Gaussian {
        self.aggregate.as_ref().expect("non-empty group has an aggregate")
    }

    /// The simplex-refined representative, when the last merge produced
    /// one and no membership or weight change has invalidated it since.
    pub fn refined(&self) -> Option<&Gaussian> {
        self.refined.as_ref()
    }

    /// Adds a member, extending the aggregate in place — one `to_gaussian`
    /// whatever the group size — and records the member's merge-time
    /// `M_remerge` against the new aggregate, so that
    /// `M_split == 1/M_remerge` holds at merge time.
    pub fn push(&mut self, mut member: Member) {
        self.refined = None;
        fold_in(&mut self.stats, &member);
        self.weight += member.weight;
        self.aggregate = self.stats.to_gaussian().ok().map(|(g, _)| g);
        if let Some(agg) = &self.aggregate {
            member.remerge_at_merge = m_remerge(&member.gaussian, agg);
        }
        self.members.push(member);
    }

    /// Appends every member of `other` in its order (extending the fold,
    /// as [`Group::push`] does), refreshes each member's merge-time
    /// `M_remerge` against the new aggregate, and installs `refined` as the
    /// representative.
    pub fn absorb(&mut self, other: Group, refined: Option<Gaussian>) {
        for m in &other.members {
            fold_in(&mut self.stats, m);
            self.weight += m.weight;
        }
        self.members.extend(other.members);
        self.aggregate = self.stats.to_gaussian().ok().map(|(g, _)| g);
        if let Some(agg) = &self.aggregate {
            let single = self.members.len() == 1;
            for m in &mut self.members {
                m.remerge_at_merge =
                    if single { f64::INFINITY } else { m_remerge(&m.gaussian, agg) };
            }
        }
        self.refined = refined;
    }

    /// Removes members matching the predicate, returning them in member
    /// order; the remaining members keep their order. Refreshes the
    /// aggregate when anything was removed.
    pub fn drain_matching(&mut self, mut pred: impl FnMut(&Member) -> bool) -> Vec<Member> {
        let removed: Vec<Member> = self.members.extract_if(.., |m| pred(m)).collect();
        if !removed.is_empty() {
            self.recompute();
        }
        removed
    }

    /// Multiplies the weight of every member of `(site, model)` by
    /// `factor`, refreshing the aggregate when any member matched.
    pub fn rescale(&mut self, site: u32, model: ModelId, factor: f64) {
        let mut touched = false;
        for m in &mut self.members {
            if m.key.site == site && m.key.model == model {
                m.weight *= factor;
                touched = true;
            }
        }
        // Groups not holding the model keep their refined representative.
        if touched {
            self.recompute();
        }
    }

    /// Refolds the statistics, weight and aggregate from the members into
    /// the existing buffers, and drops any stale refined representative.
    fn recompute(&mut self) {
        self.refined = None;
        self.stats.clear();
        for m in &self.members {
            fold_in(&mut self.stats, m);
        }
        self.weight = self.members.iter().map(|m| m.weight).sum();
        self.aggregate = if self.members.is_empty() {
            None
        } else {
            self.stats.to_gaussian().ok().map(|(g, _)| g)
        };
    }

    /// The Gaussian representing this group in the global mixture: the
    /// refined component when present, the aggregate otherwise.
    pub fn representative(&self) -> &Gaussian {
        self.refined.as_ref().unwrap_or_else(|| self.aggregate())
    }

    /// Validation hook for tests: errors when the aggregate is missing on a
    /// non-empty group.
    pub fn check(&self) -> Result<(), GmmError> {
        if !self.members.is_empty() && self.aggregate.is_none() {
            return Err(GmmError::InvalidParameter {
                name: "group",
                constraint: "non-empty group must have an aggregate",
            });
        }
        Ok(())
    }
}

/// Appends one member to a running fold, weighted by its record weight.
/// Zero-weight members still anchor the aggregate minimally.
fn fold_in(stats: &mut SuffStats, m: &Member) {
    stats.add_gaussian(&m.gaussian, m.weight.max(1e-9));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cludistream_linalg::Vector;

    fn member(site: u32, center: f64, weight: f64) -> Member {
        Member {
            key: ComponentKey { site, model: ModelId(0), component: 0 },
            gaussian: Gaussian::spherical(Vector::from_slice(&[center]), 1.0).unwrap(),
            weight,
            remerge_at_merge: 1.0,
        }
    }

    #[test]
    fn singleton_aggregate_is_member() {
        let g = Group::new(0, member(0, 5.0, 100.0));
        assert_eq!(g.len(), 1);
        assert!((g.aggregate().mean()[0] - 5.0).abs() < 1e-9);
        assert_eq!(g.weight(), 100.0);
        assert!(g.check().is_ok());
    }

    #[test]
    fn aggregate_is_weighted_moment_match() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        g.push(member(1, 10.0, 300.0));
        // Weighted mean: (0·100 + 10·300)/400 = 7.5.
        assert!((g.aggregate().mean()[0] - 7.5).abs() < 1e-9);
        // Variance: Σ (w/W)(σ² + (μ−μ')²) = 0.25(1+56.25) + 0.75(1+6.25).
        let expect = 0.25 * 57.25 + 0.75 * 7.25;
        assert!((g.aggregate().cov()[(0, 0)] - expect).abs() < 1e-6);
    }

    #[test]
    fn drain_matching_removes_and_recomputes() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        g.push(member(1, 10.0, 100.0));
        let removed = g.drain_matching(|m| m.key.site == 0);
        assert_eq!(removed.len(), 1);
        assert_eq!(g.len(), 1);
        assert!((g.aggregate().mean()[0] - 10.0).abs() < 1e-9);
        // Draining everything leaves an empty group.
        let _ = g.drain_matching(|_| true);
        assert!(g.is_empty());
    }

    #[test]
    fn refined_invalidated_on_change() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        g.refined = Some(Gaussian::spherical(Vector::from_slice(&[1.0]), 1.0).unwrap());
        assert!((g.representative().mean()[0] - 1.0).abs() < 1e-12);
        g.push(member(1, 5.0, 100.0));
        assert!(g.refined.is_none());
        // Representative falls back to the aggregate.
        assert!((g.representative().mean()[0] - 2.5).abs() < 1e-9);
    }

    fn sites(g: &Group) -> Vec<u32> {
        g.members().iter().map(|m| m.key.site).collect()
    }

    #[test]
    fn drain_matching_keeps_member_order() {
        let mut g = Group::new(0, member(0, 0.0, 10.0));
        for site in 1..8 {
            g.push(member(site, site as f64, 10.0));
        }
        let removed = g.drain_matching(|m| m.key.site % 3 == 1);
        assert_eq!(removed.iter().map(|m| m.key.site).collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(sites(&g), vec![0, 2, 3, 5, 6]);
        assert_eq!(g.weight(), 50.0);
    }

    #[test]
    fn rescale_touches_only_the_model() {
        let mut g = Group::new(0, member(0, 0.0, 100.0));
        g.push(member(1, 10.0, 100.0));
        g.refined = Some(Gaussian::spherical(Vector::from_slice(&[1.0]), 1.0).unwrap());
        // Another model's update leaves the group, refined included, alone.
        g.rescale(0, ModelId(1), 3.0);
        assert!(g.refined().is_some());
        assert_eq!(g.weight(), 200.0);
        g.rescale(1, ModelId(0), 3.0);
        assert!(g.refined().is_none());
        assert_eq!(g.weight(), 400.0);
        // Weighted mean: (0·100 + 10·300)/400 = 7.5.
        assert!((g.aggregate().mean()[0] - 7.5).abs() < 1e-9);
    }

    #[test]
    fn absorb_appends_in_order_and_refreshes_remerge() {
        let mut a = Group::new(0, member(0, 0.0, 100.0));
        a.push(member(1, 1.0, 100.0));
        let mut b = Group::new(1, member(2, 4.0, 100.0));
        b.push(member(3, 5.0, 100.0));
        let refined = Gaussian::spherical(Vector::from_slice(&[2.0]), 1.0).unwrap();
        a.absorb(b, Some(refined));
        assert_eq!(sites(&a), vec![0, 1, 2, 3]);
        assert_eq!(a.weight(), 400.0);
        assert!((a.aggregate().mean()[0] - 2.5).abs() < 1e-9);
        assert!((a.representative().mean()[0] - 2.0).abs() < 1e-12);
        for m in a.members() {
            assert_eq!(m.remerge_at_merge, m_remerge(&m.gaussian, a.aggregate()));
        }
    }

    #[test]
    fn zero_weight_member_does_not_break_aggregate() {
        let mut g = Group::new(0, member(0, 0.0, 0.0));
        g.recompute();
        assert!(g.check().is_ok());
        assert!(g.aggregate().mean()[0].abs() < 1e-9);
    }
}
