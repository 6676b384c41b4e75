//! Arrival scripts: which transactions each site starts, and when.
//!
//! A [`Script`] is one site's arrivals, `(arrival time, transaction)` in
//! time order. It is *listed* — an `Arc`-shared, copy-on-write `Vec`
//! (hand-written runs, probes, tests) — or *drawn*: a handle on a
//! [`Generator`] that yields the whole cluster's arrivals in time order,
//! plus this site's length and last arrival, counted by one pass over the
//! draw when the scripts were made. A drawn script holds nothing per
//! arrival.
//!
//! A run reads its scripts through one feed, built when the cluster is:
//! each site has a [`ScriptCursor`], the kernel's arrival stream moves
//! it, and the site reads the arrival being dispatched from it. Drawn
//! scripts share one fresh draw of their generator; an arrival drawn for
//! another site waits in that site's queue until the kernel reaches it. A
//! listed script is a draw of its own over its `Vec`, read through the
//! same queue.

use crate::item::Catalog;
use crate::ops::Op;
use crate::txn::TxnSpec;
use crate::Qty;
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// One arrival of a cluster-wide draw: `(site, arrival time, transaction)`.
pub type Arrival = (NodeId, SimTime, TxnSpec);

/// A resumable source of a whole cluster's arrivals.
pub trait Generator: Send + Sync {
    /// The sites it draws arrivals for: `0..n_sites()`.
    fn n_sites(&self) -> usize;

    /// A fresh draw from the first arrival: every arrival, in time order.
    /// Each draw yields the same sequence.
    fn draw(&self) -> Box<dyn Iterator<Item = Arrival>>;
}

/// One site's arrival script: `(arrival time, transaction)` pairs in
/// time order, which is the order the cluster schedules them, so arrival
/// `i` is the transaction external tag `i` starts. A cluster refuses a
/// script whose times decrease, an op that moves more than `i64::MAX`,
/// or deposits that can take an item's total past `i64::MAX`.
///
/// `clone` shares: a listed script's `Vec` and a drawn script's generator
/// are `Arc`s, so the workload, the scenario, the cluster config and the
/// built node all hold the same allocation. A write ([`push`](Self::push),
/// [`insert`](Self::insert)) through a shared handle copies first — a
/// drawn script is listed by that copy — and leaves the other holders
/// untouched.
#[derive(Clone)]
pub struct Script(Source);

#[derive(Clone)]
enum Source {
    Listed(Arc<Vec<(SimTime, TxnSpec)>>),
    Drawn(Arc<Drawn>),
}

/// A drawn script: its generator and what one pass over the draw
/// counted for its site.
struct Drawn {
    generator: Arc<dyn Generator>,
    site: NodeId,
    len: usize,
    last: Option<(SimTime, TxnSpec)>,
    /// Its `Incr` amounts summed per item (saturating), indexed by
    /// `item.0`.
    deposits: Vec<Qty>,
}

impl Script {
    /// An empty (listed) script.
    pub fn new() -> Self {
        Script(Source::Listed(Arc::default()))
    }

    /// One script per site of `generator`, each holding its length, last
    /// arrival and deposits per item, and nothing per arrival. Makes one
    /// pass over a draw and checks every arrival as a run checks a listed
    /// script's.
    pub fn drawn(generator: Arc<dyn Generator>) -> Vec<Script> {
        let mut sites: Vec<Drawn> = (0..generator.n_sites())
            .map(|site| Drawn {
                generator: Arc::clone(&generator),
                site,
                len: 0,
                last: None,
                deposits: Vec::new(),
            })
            .collect();
        for (site, at, spec) in generator.draw() {
            let d = &mut sites[site];
            let due = d.last.as_ref().map_or(SimTime::ZERO, |l| l.0);
            check(site, d.len, due, at, &spec, &mut d.deposits);
            d.len += 1;
            d.last = Some((at, spec));
        }
        sites
            .into_iter()
            .map(|d| Script(Source::Drawn(Arc::new(d))))
            .collect()
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        match &self.0 {
            Source::Listed(list) => list.len(),
            Source::Drawn(d) => d.len,
        }
    }

    /// Whether there are no arrivals.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last arrival, if any.
    pub fn last(&self) -> Option<&(SimTime, TxnSpec)> {
        match &self.0 {
            Source::Listed(list) => list.last(),
            Source::Drawn(d) => d.last.as_ref(),
        }
    }

    /// The arrivals, in order. A drawn script draws its generator afresh
    /// and keeps this site's arrivals.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (SimTime, TxnSpec)> + '_> {
        match &self.0 {
            Source::Listed(list) => Box::new(list.iter().cloned()),
            Source::Drawn(d) => {
                let site = d.site;
                Box::new(
                    d.generator
                        .draw()
                        .filter(move |a| a.0 == site)
                        .map(|(_, at, spec)| (at, spec)),
                )
            }
        }
    }

    /// Append an arrival (copies the list first if it is shared or drawn).
    pub fn push(&mut self, arrival: (SimTime, TxnSpec)) {
        self.list_mut().push(arrival);
    }

    /// Insert an arrival at `index` (copies the list first if it is
    /// shared or drawn).
    pub fn insert(&mut self, index: usize, arrival: (SimTime, TxnSpec)) {
        self.list_mut().insert(index, arrival);
    }

    /// This script's own list, listed first if it was drawn.
    fn list_mut(&mut self) -> &mut Vec<(SimTime, TxnSpec)> {
        if let Source::Drawn(_) = self.0 {
            let list = self.iter().collect();
            self.0 = Source::Listed(Arc::new(list));
        }
        match &mut self.0 {
            Source::Listed(list) => Arc::make_mut(list),
            Source::Drawn(_) => unreachable!("listed just above"),
        }
    }

    /// Whether two handles share one list, or one drawn site.
    pub fn ptr_eq(a: &Script, b: &Script) -> bool {
        match (&a.0, &b.0) {
            (Source::Listed(a), Source::Listed(b)) => Arc::ptr_eq(a, b),
            (Source::Drawn(a), Source::Drawn(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Default for Script {
    fn default() -> Self {
        Script::new()
    }
}

impl PartialEq for Script {
    fn eq(&self, other: &Script) -> bool {
        Script::ptr_eq(self, other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Eq for Script {}

impl fmt::Debug for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let drawn = matches!(self.0, Source::Drawn(_));
        f.debug_struct(if drawn { "Drawn" } else { "Listed" })
            .field("len", &self.len())
            .field("last", &self.last())
            .finish()
    }
}

/// Refuse arrival `i` of `site`'s script, due at `at` after an arrival
/// due at `due`, if it goes back in time or moves more than `i64::MAX`
/// (its signed [`Op::delta`] would wrap). Adds its `Incr` amounts to
/// `sums`, the site's deposits per item, indexed by `item.0`.
fn check(site: NodeId, i: usize, due: SimTime, at: SimTime, spec: &TxnSpec, sums: &mut Vec<Qty>) {
    if at < due {
        panic!(
            "site {site}'s script is out of time order: arrival {i} is due before arrival {}",
            i - 1
        );
    }
    for &(item, op) in spec.ops.iter() {
        if let Op::Incr(m) | Op::Decr(m) = op {
            if m > i64::MAX as Qty {
                panic!("site {site}'s arrival {i} moves {m} units, more than i64::MAX");
            }
        }
        if let Op::Incr(m) = op {
            let k = item.0 as usize;
            if k >= sums.len() {
                // Powers of two from 64 items: the sums allocate once up
                // to 64 items and at most once per doubling beyond,
                // however long the script is.
                sums.resize((k + 1).next_power_of_two().max(64), 0);
            }
            sums[k] = sums[k].saturating_add(m);
        }
    }
}

/// One run's arrivals: where they are drawn from, and what each site has
/// been drawn and not yet passed.
struct Feed {
    /// The draws: one of the generator the run's drawn scripts share, one
    /// per listed script.
    sources: Vec<Box<dyn Iterator<Item = Arrival>>>,
    sites: Vec<Queue>,
}

/// One site's place in its run's feed.
struct Queue {
    /// The draw this site's arrivals come from.
    source: usize,
    /// Tag of `pending`'s front.
    front: usize,
    /// The arrival the kernel holds for this site, then those drawn ahead
    /// for it while drawing another site's.
    pending: VecDeque<(SimTime, TxnSpec)>,
}

impl Feed {
    fn new(scripts: &[Script], catalog: &Catalog) -> Feed {
        let mut sources: Vec<Box<dyn Iterator<Item = Arrival>>> = Vec::new();
        // The generator every drawn script reads, and its draw's index.
        let mut drawn: Option<(*const (), usize)> = None;
        let mut sites = Vec::with_capacity(scripts.len());
        // Each item's total if every deposit scripted so far committed.
        let mut totals: Vec<Qty> = catalog.items().iter().map(|d| d.total).collect();
        for (s, script) in scripts.iter().enumerate() {
            let source = match &script.0 {
                Source::Listed(list) => {
                    let (mut due, mut deposits) = (SimTime::ZERO, Vec::new());
                    for (i, (at, spec)) in list.iter().enumerate() {
                        check(s, i, due, *at, spec, &mut deposits);
                        due = *at;
                    }
                    add_deposits(&mut totals, s, &deposits, catalog);
                    let list = Arc::clone(list);
                    sources.push(Box::new(
                        (0..list.len()).map(move |i| (s, list[i].0, list[i].1.clone())),
                    ));
                    sources.len() - 1
                }
                Source::Drawn(d) => {
                    assert_eq!(d.site, s, "site {s} is given site {}'s script", d.site);
                    let generator = Arc::as_ptr(&d.generator) as *const ();
                    let (first, source) = *drawn.get_or_insert_with(|| {
                        sources.push(d.generator.draw());
                        (generator, sources.len() - 1)
                    });
                    assert!(
                        first == generator,
                        "a run's drawn scripts share one generator"
                    );
                    add_deposits(&mut totals, s, &d.deposits, catalog);
                    source
                }
            };
            sites.push(Queue {
                source,
                front: 0,
                pending: VecDeque::new(),
            });
        }
        Feed { sources, sites }
    }

    /// Instant of `site`'s arrival `k`. The kernel has passed every
    /// arrival before it, so those leave the queue; if `k` was not drawn
    /// yet, the site's source is drawn until it is, queueing what comes
    /// first for other sites that read the same source.
    fn due(&mut self, site: NodeId, k: usize) -> SimTime {
        let q = &mut self.sites[site];
        while q.front < k {
            q.pending.pop_front();
            q.front += 1;
        }
        if let Some(&(at, _)) = q.pending.front() {
            return at;
        }
        let source = q.source;
        loop {
            let (to, at, spec) = self.sources[source]
                .next()
                .unwrap_or_else(|| panic!("site {site}'s script ran out at arrival {k}"));
            if let Some(q) = self.sites.get_mut(to).filter(|q| q.source == source) {
                q.pending.push_back((at, spec));
                if to == site {
                    return at;
                }
            }
        }
    }
}

/// Add `site`'s `deposits` to the catalog's `totals`, both indexed by
/// `item.0`, and refuse the run if one can pass `i64::MAX`: `History`
/// folds totals as `i64`, and no fragment can then overflow either.
fn add_deposits(totals: &mut [Qty], site: NodeId, deposits: &[Qty], catalog: &Catalog) {
    for (def, (total, &m)) in catalog.items().iter().zip(totals.iter_mut().zip(deposits)) {
        *total = total.saturating_add(m);
        if *total > i64::MAX as Qty {
            panic!("site {site}'s deposits can take {:?} past i64::MAX", def.id);
        }
    }
}

/// One site's reading position in its run's arrivals, shared by the
/// kernel's arrival stream, which moves it, and the site, which reads the
/// arrival being dispatched from it.
#[derive(Clone)]
pub struct ScriptCursor {
    feed: Rc<RefCell<Feed>>,
    site: NodeId,
    script: Script,
}

impl ScriptCursor {
    /// A cursor per script, all over one new feed: drawn scripts share one
    /// fresh draw of their generator. Checks every listed script's
    /// arrivals (drawn ones were checked when drawn), and every
    /// `catalog` item's total against the deposits of all scripts.
    ///
    /// Panics as [`ClusterConfig::simulate`](crate::ClusterConfig::simulate)
    /// documents, if a drawn script sits at another site than the one it
    /// was drawn for, or if drawn scripts come from two generators.
    pub(crate) fn run(scripts: &[Script], catalog: &Catalog) -> Vec<ScriptCursor> {
        let feed = Rc::new(RefCell::new(Feed::new(scripts, catalog)));
        scripts
            .iter()
            .enumerate()
            .map(|(site, script)| ScriptCursor {
                feed: Rc::clone(&feed),
                site,
                script: script.clone(),
            })
            .collect()
    }

    /// The site whose arrivals this cursor reads.
    pub fn site(&self) -> NodeId {
        self.site
    }

    /// The script this cursor reads (a shared handle).
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// Instant of arrival `k`, drawn once every arrival before it has been
    /// passed: the kernel's arrival-stream cursor.
    pub(crate) fn due(&self, k: usize) -> SimTime {
        self.feed.borrow_mut().due(self.site, k)
    }

    /// The transaction of the arrival being dispatched, external tag
    /// `tag`: tags arrive once and in order, so `None` (and a failed debug
    /// assertion) for any other. Specs keep their ops inline, so the clone
    /// is a copy.
    pub fn spec(&self, tag: u64) -> Option<TxnSpec> {
        let feed = self.feed.borrow();
        let q = &feed.sites[self.site];
        let due = q.pending.front().filter(|_| q.front as u64 == tag);
        debug_assert!(
            due.is_some(),
            "site {} was handed tag {tag}, but its arrival {} is due",
            self.site,
            q.front
        );
        due.map(|(_, spec)| spec.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemId;

    const A: ItemId = ItemId(0);
    const B: ItemId = ItemId(1);

    /// A generator over a fixed cluster-wide sequence.
    struct Fixed(usize, Vec<Arrival>);

    impl Generator for Fixed {
        fn n_sites(&self) -> usize {
            self.0
        }
        fn draw(&self) -> Box<dyn Iterator<Item = Arrival>> {
            Box::new(self.1.clone().into_iter())
        }
    }

    /// Three sites: site 0 busy, site 1 with two arrivals, site 2 none.
    fn fixed() -> Vec<Script> {
        let arrivals = (1..=6u64)
            .map(|k| {
                let site = if k == 2 || k == 5 { 1 } else { 0 };
                (site, SimTime(k * 10), TxnSpec::reserve(A, k))
            })
            .collect();
        Script::drawn(Arc::new(Fixed(3, arrivals)))
    }

    #[test]
    fn script_clone_shares_and_push_copies_on_write() {
        let mut a = Script::new();
        a.push((SimTime(1), TxnSpec::reserve(A, 1)));
        let b = a.clone();
        assert!(Script::ptr_eq(&a, &b));
        a.push((SimTime(2), TxnSpec::read(B)));
        assert!(!Script::ptr_eq(&a, &b));
        assert_eq!((a.len(), b.len()), (2, 1));
        assert_eq!(a.last(), Some(&(SimTime(2), TxnSpec::read(B))));
        assert_eq!(a.iter().count(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn a_drawn_script_holds_its_summary_and_lists_itself_on_write() {
        let scripts = fixed();
        let lens: Vec<usize> = scripts.iter().map(Script::len).collect();
        assert_eq!(lens, [4, 2, 0]);
        assert_eq!(
            scripts[1].last(),
            Some(&(SimTime(50), TxnSpec::reserve(A, 5)))
        );
        assert_eq!(scripts[2].last(), None);
        let site1: Vec<_> = scripts[1].iter().collect();
        assert_eq!(
            site1,
            [
                (SimTime(20), TxnSpec::reserve(A, 2)),
                (SimTime(50), TxnSpec::reserve(A, 5))
            ]
        );
        let mut listed = scripts[1].clone();
        assert!(Script::ptr_eq(&listed, &scripts[1]));
        listed.push((SimTime(60), TxnSpec::read(B)));
        assert!(!Script::ptr_eq(&listed, &scripts[1]));
        assert_eq!(listed.len(), 3);
        assert_eq!(scripts[1].len(), 2, "the drawn handle is untouched");
        assert_eq!(listed.iter().take(2).collect::<Vec<_>>(), site1);
    }

    #[test]
    #[should_panic(
        expected = "site 1's script is out of time order: arrival 1 is due before arrival 0"
    )]
    fn drawing_refuses_a_generator_that_goes_back_in_time() {
        let arrivals = vec![
            (1, SimTime(20), TxnSpec::read(A)),
            (0, SimTime(15), TxnSpec::read(A)),
            (1, SimTime(10), TxnSpec::read(A)),
        ];
        Script::drawn(Arc::new(Fixed(2, arrivals)));
    }

    /// Drive cursors the way the kernel does: always the earliest pending
    /// arrival (ties by site), reading its spec, then drawing the site's
    /// next. Returns `(site, tag, at, spec)` in dispatch order and the
    /// most arrivals any moment held queued.
    fn dispatch_all(scripts: &[Script]) -> (Vec<(NodeId, u64, SimTime, TxnSpec)>, usize) {
        let cursors = ScriptCursor::run(scripts, &Catalog::new());
        let mut next: Vec<Option<(SimTime, usize)>> = cursors
            .iter()
            .map(|c| (!c.script().is_empty()).then(|| (c.due(0), 0)))
            .collect();
        let (mut out, mut deepest) = (Vec::new(), 0);
        while let Some((s, (at, k))) = next
            .iter()
            .enumerate()
            .filter_map(|(s, n)| n.map(|n| (s, n)))
            .min_by_key(|&(s, (at, _))| (at, s))
        {
            out.push((s, k as u64, at, cursors[s].spec(k as u64).unwrap()));
            next[s] = (k + 1 < cursors[s].script().len()).then(|| (cursors[s].due(k + 1), k + 1));
            let feed = cursors[s].feed.borrow();
            deepest = deepest.max(feed.sites.iter().map(|q| q.pending.len()).sum());
        }
        (out, deepest)
    }

    #[test]
    fn cursors_yield_each_sites_arrivals_once_and_in_order() {
        let scripts = fixed();
        let (drawn, deepest) = dispatch_all(&scripts);
        let at: Vec<(NodeId, u64, u64)> = drawn.iter().map(|d| (d.0, d.1, d.2 .0)).collect();
        assert_eq!(
            at,
            [
                (0, 0, 10),
                (1, 0, 20),
                (0, 1, 30),
                (0, 2, 40),
                (1, 1, 50),
                (0, 3, 60)
            ]
        );
        assert!(drawn
            .iter()
            .all(|d| d.3 == TxnSpec::reserve(A, d.2 .0 / 10)));
        // Drawing site 1's second arrival draws site 0's 40 ahead of it.
        assert_eq!(deepest, 3);
        // A listed copy of the same arrivals dispatches the same.
        let listed: Vec<Script> = scripts
            .iter()
            .map(|s| {
                let mut l = Script::new();
                s.iter().for_each(|a| l.push(a));
                l
            })
            .collect();
        assert_eq!(dispatch_all(&listed).0, drawn);
    }

    #[test]
    fn a_listed_site_takes_nothing_from_the_shared_draw() {
        let mut scripts = fixed();
        scripts[1] = Script::new();
        scripts[1].push((SimTime(35), TxnSpec::read(B)));
        let (drawn, _) = dispatch_all(&scripts);
        let sites: Vec<(NodeId, u64)> = drawn.iter().map(|d| (d.0, d.2 .0)).collect();
        assert_eq!(sites, [(0, 10), (0, 30), (1, 35), (0, 40), (0, 60)]);
    }

    #[test]
    fn passed_arrivals_leave_the_queue_whether_or_not_they_were_read() {
        let scripts = fixed();
        let cursors = ScriptCursor::run(&scripts, &Catalog::new());
        // The kernel passes all of site 0's arrivals without dispatching
        // any (its site is down): nothing is left but the last.
        for k in 0..4 {
            cursors[0].due(k);
        }
        let queued = |s: usize| cursors[0].feed.borrow().sites[s].pending.len();
        assert_eq!((queued(0), queued(1)), (1, 2));
        assert_eq!(cursors[0].spec(3), Some(TxnSpec::reserve(A, 6)));
    }
}
