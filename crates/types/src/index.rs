//! Name-indexed resolution of abbreviated terms straight to atom ids.
//!
//! A [`SchemaIndex`] is built once per ambient attribute `N`. It flattens
//! `N` into pre-order nodes, maps every record's component *head names*
//! (flat name, record label or list label) to positions, and stores each
//! node's first atom id in the depth-first pre-order that
//! `nalist_algebra::Algebra` numbers `SubB(N)` with: a flat leaf is one
//! atom, a list node is one atom followed by its content's atoms.
//!
//! Resolving a [`Loose`] term then never builds a subattribute tree. A
//! loose record `L(d1, …, dm)` against `L(N1, …, Nk)` is counted by a DP
//! over *candidate* positions only: a named component can only sit at a
//! position whose head carries its name, so the common unique-name case
//! is near-linear, while a `λ` component ranges over every position that
//! leaves room for its neighbours (the worst case stays `O(m·k)`).
//! Counts saturate at `u64::MAX`. When a term has exactly one
//! resolution, its atom ids fall out of the same pass; otherwise
//! [`SchemaIndex::first_resolution`] recovers the leftmost resolution —
//! the first one a left-to-right enumeration of placements lists —
//! without enumerating the others.

use crate::attr::NestedAttr;
use crate::display::Loose;
use crate::error::ParseError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Flat,
    Record,
    List,
}

#[derive(Debug, Clone)]
struct Node {
    kind: Kind,
    /// Head name (empty for `λ`): `text[name.0..name.1]`.
    name: (u32, u32),
    /// Id of the first atom in this subtree.
    first_atom: u32,
    /// Number of atoms in this subtree.
    atoms: u32,
    /// Record: components are `children[lo..hi]` and their heads
    /// `heads[lo..hi]`. List: `lo` is the content node.
    lo: u32,
    hi: u32,
}

/// One DP cell of a record resolution: component `i` placed at `pos`,
/// `ways` the resolutions of it and every component to its right with
/// that placement (never zero), `suffix` the sum of `ways` over this and
/// every later cell of the same component, and `seg` the range of the
/// atom buffer holding the placement's atoms when the component itself
/// resolves uniquely there.
#[derive(Clone, Copy)]
struct Cell {
    pos: u32,
    ways: u64,
    suffix: u64,
    seg: (u32, u32),
}

/// Per-schema resolution index (see the module docs).
///
/// ```
/// use nalist_types::{parser::{parse_attr, parse_loose}, SchemaIndex};
///
/// // atoms in pre-order: B, C (list), E, F (list), G
/// let n = parse_attr("A'(B, C[D(E, F[G])])").unwrap();
/// let idx = SchemaIndex::new(&n);
/// let d = parse_loose("A'(C[D(F[λ])])").unwrap();
/// assert_eq!(idx.resolve(&d, "A'(C[D(F[λ])])").unwrap(), vec![1, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SchemaIndex {
    nodes: Vec<Node>,
    children: Vec<u32>,
    /// Per record, its component positions sorted by (head name,
    /// position) — the candidate lists.
    heads: Vec<u32>,
    /// Every head name, back to back.
    text: String,
}

impl SchemaIndex {
    /// Indexes the ambient attribute `n`.
    pub fn new(n: &NestedAttr) -> Self {
        let mut idx = SchemaIndex {
            nodes: Vec::with_capacity(n.node_count()),
            children: Vec::new(),
            heads: Vec::new(),
            text: String::new(),
        };
        let mut atoms = 0;
        idx.add(n, &mut atoms);
        idx
    }

    fn push_name(&mut self, name: &str) -> (u32, u32) {
        let start = self.text.len();
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("schema text fits u32");
        (start as u32, end)
    }

    fn name(&self, node: &Node) -> &str {
        &self.text[node.name.0 as usize..node.name.1 as usize]
    }

    /// [`SchemaIndex::name`] as bytes: comparing names is the inner loop
    /// of resolution, and byte slicing skips the char-boundary checks.
    fn name_bytes(&self, node: &Node) -> &[u8] {
        &self.text.as_bytes()[node.name.0 as usize..node.name.1 as usize]
    }

    fn add(&mut self, n: &NestedAttr, atoms: &mut u32) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("node count fits u32");
        let first_atom = *atoms;
        let (kind, name) = match n {
            NestedAttr::Null => (Kind::Null, ""),
            NestedAttr::Flat(a) => (Kind::Flat, a.as_str()),
            NestedAttr::Record(l, _) => (Kind::Record, l.as_str()),
            NestedAttr::List(l, _) => (Kind::List, l.as_str()),
        };
        let name = self.push_name(name);
        self.nodes.push(Node {
            kind,
            name,
            first_atom,
            atoms: 0,
            lo: 0,
            hi: 0,
        });
        let (lo, hi) = match n {
            NestedAttr::Null => (0, 0),
            NestedAttr::Flat(_) => {
                *atoms += 1;
                (0, 0)
            }
            NestedAttr::Record(_, cs) => {
                let ids: Vec<u32> = cs.iter().map(|c| self.add(c, atoms)).collect();
                let lo = self.children.len();
                let mut heads: Vec<u32> = (0..ids.len() as u32).collect();
                heads.sort_by(|&p, &q| {
                    let name = |p: u32| self.name_bytes(&self.nodes[ids[p as usize] as usize]);
                    name(p).cmp(name(q)).then(p.cmp(&q))
                });
                self.children.extend(ids);
                self.heads.extend(heads);
                (lo as u32, self.children.len() as u32)
            }
            NestedAttr::List(_, inner) => {
                *atoms += 1;
                (self.add(inner, atoms), 0)
            }
        };
        let node = &mut self.nodes[id as usize];
        node.atoms = *atoms - first_atom;
        node.lo = lo;
        node.hi = hi;
        id
    }

    /// `|SubB(N)|`: the number of atoms of the indexed attribute.
    pub fn atom_count(&self) -> usize {
        self.nodes[0].atoms as usize
    }

    /// The first atom id of every node of `N`, in pre-order (`λ` nodes
    /// included: they own no atom and report the id their successor
    /// starts at).
    pub fn atom_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().map(|n| n.first_atom as usize)
    }

    fn name_is(&self, node: &Node, name: &str) -> bool {
        self.name_bytes(node) == name.as_bytes()
    }

    /// Number of subattributes of `N` whose abbreviated form matches
    /// `d`, saturating at `u64::MAX`.
    pub fn count(&self, d: &Loose) -> u64 {
        self.count_into(d, 0, &mut Vec::new())
    }

    /// Resolves `d` to the atom ids (ascending) of the unique
    /// subattribute of `N` it abbreviates. `src` is the text reported in
    /// the error: [`ParseError::NoMatch`] without a resolution,
    /// [`ParseError::Ambiguous`] (with the saturating count) with more
    /// than one.
    pub fn resolve(&self, d: &Loose, src: &str) -> Result<Vec<usize>, ParseError> {
        let mut out = Vec::new();
        match self.count_into(d, 0, &mut out) {
            1 => Ok(out.into_iter().map(|a| a as usize).collect()),
            0 => Err(ParseError::NoMatch {
                input: src.to_owned(),
                context: self.to_string(),
            }),
            c => Err(ParseError::Ambiguous {
                input: src.to_owned(),
                context: self.to_string(),
                count: c as usize,
            }),
        }
    }

    /// The atom ids of the leftmost resolution of `d` — each component
    /// at its leftmost feasible position, recursively, which is the
    /// first one a left-to-right enumeration of placements lists — or
    /// `None` without any. Costs one count per record on the chosen path, never an
    /// enumeration.
    pub fn first_resolution(&self, d: &Loose) -> Option<Vec<usize>> {
        let mut out = Vec::new();
        self.first_into(d, 0, &mut out)
            .then(|| out.into_iter().map(|a| a as usize).collect())
    }

    /// The canonical subattribute of `N` whose atoms are `atoms`
    /// (ascending and downward closed, as [`SchemaIndex::resolve`]
    /// returns them).
    pub fn attr_of(&self, atoms: &[usize]) -> NestedAttr {
        let mut next = 0;
        self.attr_walk(0, atoms, &mut next)
    }

    fn attr_walk(&self, at: u32, atoms: &[usize], next: &mut usize) -> NestedAttr {
        let node = &self.nodes[at as usize];
        let name = || self.name(node).to_owned();
        let present = atoms.get(*next) == Some(&(node.first_atom as usize));
        match node.kind {
            Kind::Null => NestedAttr::Null,
            Kind::Flat if present => {
                *next += 1;
                NestedAttr::Flat(name())
            }
            Kind::List if present => {
                *next += 1;
                NestedAttr::List(name(), Box::new(self.attr_walk(node.lo, atoms, next)))
            }
            Kind::Flat | Kind::List => NestedAttr::Null,
            Kind::Record => NestedAttr::Record(
                name(),
                self.children[node.lo as usize..node.hi as usize]
                    .iter()
                    .map(|&c| self.attr_walk(c, atoms, next))
                    .collect(),
            ),
        }
    }

    /// Abbreviated loose form of `x ≤ N` that resolves uniquely: bottom
    /// components are omitted unless that makes the record ambiguous
    /// (the paper's `L(A, A)` case), in which case the record is written
    /// at full arity.
    pub fn loose_unambiguous(&self, x: &NestedAttr) -> Loose {
        self.unambiguous_at(x, 0)
    }

    fn unambiguous_at(&self, x: &NestedAttr, at: u32) -> Loose {
        if x.is_bottom() {
            return Loose::Lambda;
        }
        let node = &self.nodes[at as usize];
        match x {
            NestedAttr::Flat(a) => Loose::Flat(a.clone()),
            NestedAttr::Record(l, xcs) => {
                let comps = &self.children[node.lo as usize..node.hi as usize];
                let omit: Vec<bool> = xcs
                    .iter()
                    .zip(comps)
                    .map(|(xc, &c)| self.is_bottom_of(xc, c))
                    .collect();
                let kept: Vec<Loose> = xcs
                    .iter()
                    .zip(comps)
                    .zip(&omit)
                    .filter(|(_, &o)| !o)
                    .map(|((xc, &c), _)| self.unambiguous_at(xc, c))
                    .collect();
                let candidate = Loose::Record(l.clone(), kept);
                // Each kept form resolves uniquely at its own position, so
                // when no sibling shares its head name the omission is
                // unambiguous without a recount.
                let unique_heads = omit
                    .iter()
                    .enumerate()
                    .all(|(p, &o)| o || self.head_is_unique(node, p));
                if unique_heads || self.count_into(&candidate, at, &mut Vec::new()) == 1 {
                    return candidate;
                }
                // full arity: the assignment is then forced
                let Loose::Record(_, kept) = candidate else {
                    unreachable!("built as a record above")
                };
                let mut kept = kept.into_iter();
                let explicit = omit
                    .iter()
                    .map(|&o| {
                        if o {
                            Loose::Lambda
                        } else {
                            kept.next().expect("one kept form per non-bottom component")
                        }
                    })
                    .collect();
                Loose::Record(l.clone(), explicit)
            }
            NestedAttr::List(l, xi) => {
                Loose::List(l.clone(), Box::new(self.unambiguous_at(xi, node.lo)))
            }
            NestedAttr::Null => unreachable!("λ is bottom"),
        }
    }

    /// Is component `p` of the record `node` the only one with its head
    /// name?
    fn head_is_unique(&self, node: &Node, p: usize) -> bool {
        let comps = &self.children[node.lo as usize..node.hi as usize];
        let heads = &self.heads[node.lo as usize..node.hi as usize];
        let head = |q: u32| self.name_bytes(&self.nodes[comps[q as usize] as usize]);
        let name = head(p as u32);
        let lo = heads.partition_point(|&q| head(q) < name);
        heads.get(lo + 1).map_or(true, |&q| head(q) != name)
    }

    /// Is `x` the bottom `λ_M` of the node `at` itself (`λ` for a flat
    /// or list node, the record of bottoms for a record node)?
    fn is_bottom_of(&self, x: &NestedAttr, at: u32) -> bool {
        let node = &self.nodes[at as usize];
        match (x, node.kind) {
            (NestedAttr::Null, kind) => kind != Kind::Record,
            (NestedAttr::Record(l, xcs), Kind::Record) => {
                let comps = &self.children[node.lo as usize..node.hi as usize];
                self.name_is(node, l)
                    && xcs.len() == comps.len()
                    && xcs
                        .iter()
                        .zip(comps)
                        .all(|(xc, &c)| self.is_bottom_of(xc, c))
            }
            _ => false,
        }
    }

    /// Saturating count of the resolutions of `d` against node `at`.
    /// When the count is 1 the resolution's atom ids have been appended
    /// to `out` (ascending); otherwise `out` is as it was.
    fn count_into(&self, d: &Loose, at: u32, out: &mut Vec<u32>) -> u64 {
        let node = &self.nodes[at as usize];
        match (d, node.kind) {
            (Loose::Lambda, _) => 1,
            (Loose::Flat(a), Kind::Flat) if self.name_is(node, a) => {
                out.push(node.first_atom);
                1
            }
            (Loose::List(l, di), Kind::List) if self.name_is(node, l) => {
                let mark = out.len();
                out.push(node.first_atom);
                let c = self.count_into(di, node.lo, out);
                if c != 1 {
                    out.truncate(mark);
                }
                c
            }
            (Loose::Record(l, ds), Kind::Record) if self.name_is(node, l) => {
                let mark = out.len();
                let Some(dp) = self.record_dp(ds, node, out) else {
                    out.truncate(mark);
                    return 0;
                };
                let total = dp.total();
                if total == 1 {
                    let mut chosen: Vec<u32> = Vec::new();
                    for cell in dp.leftmost() {
                        chosen.extend_from_slice(&out[cell.seg.0 as usize..cell.seg.1 as usize]);
                    }
                    out.truncate(mark);
                    out.extend(chosen);
                } else {
                    out.truncate(mark);
                }
                total
            }
            _ => 0,
        }
    }

    /// The DP behind a loose record `ds` against record node `node`, or
    /// `None` when `ds` has more components than the record. Components
    /// are processed right to left, so a component is only ever resolved
    /// at a position that leaves a completion to its right. Uniquely
    /// resolving placements leave their atoms in `buf` at their
    /// cell's `seg`.
    fn record_dp(&self, ds: &[Loose], node: &Node, buf: &mut Vec<u32>) -> Option<RecordDp> {
        let (m, k) = (ds.len(), (node.hi - node.lo) as usize);
        if m > k {
            return None;
        }
        let comps = &self.children[node.lo as usize..node.hi as usize];
        let heads = &self.heads[node.lo as usize..node.hi as usize];
        let mut cells: Vec<Cell> = Vec::new();
        let mut spans = vec![(0, 0); m];
        for (i, d) in ds.iter().enumerate().rev() {
            let start = cells.len();
            // completions of ds[i+1..] using positions ≥ q
            let right = |cells: &[Cell], q: usize| -> u64 {
                if i + 1 == m {
                    return 1;
                }
                let (lo, hi) = spans[i + 1];
                let later = &cells[lo..hi];
                let j = later.partition_point(|c| (c.pos as usize) < q);
                later.get(j).map_or(0, |c| c.suffix)
            };
            // component i needs i positions to its left and m-1-i to its right
            let (first, last) = (i, k - (m - i));
            let place = |cells: &mut Vec<Cell>, p: usize, buf: &mut Vec<u32>| {
                let ways_right = right(cells, p + 1);
                if ways_right == 0 {
                    return;
                }
                let seg_start = buf.len() as u32;
                let here = match d {
                    Loose::Lambda => 1,
                    _ => self.count_into(d, comps[p], buf),
                };
                if here > 0 {
                    cells.push(Cell {
                        pos: p as u32,
                        ways: here.saturating_mul(ways_right),
                        suffix: 0,
                        seg: (seg_start, buf.len() as u32),
                    });
                }
            };
            match d {
                Loose::Lambda => {
                    for p in first..=last {
                        place(&mut cells, p, buf);
                    }
                }
                Loose::Flat(name) | Loose::Record(name, _) | Loose::List(name, _) => {
                    let head = |p: u32| self.name_bytes(&self.nodes[comps[p as usize] as usize]);
                    let name = name.as_bytes();
                    let lo = heads.partition_point(|&p| (head(p), p as usize) < (name, first));
                    for &p in &heads[lo..] {
                        if head(p) != name || p as usize > last {
                            break;
                        }
                        place(&mut cells, p as usize, buf);
                    }
                }
            }
            let mut acc = 0u64;
            for cell in cells[start..].iter_mut().rev() {
                acc = acc.saturating_add(cell.ways);
                cell.suffix = acc;
            }
            spans[i] = (start, cells.len());
        }
        Some(RecordDp { cells, spans })
    }

    fn first_into(&self, d: &Loose, at: u32, out: &mut Vec<u32>) -> bool {
        let node = &self.nodes[at as usize];
        match (d, node.kind) {
            (Loose::Lambda, _) => true,
            (Loose::Flat(a), Kind::Flat) if self.name_is(node, a) => {
                out.push(node.first_atom);
                true
            }
            (Loose::List(l, di), Kind::List) if self.name_is(node, l) => {
                out.push(node.first_atom);
                self.first_into(di, node.lo, out)
            }
            (Loose::Record(l, ds), Kind::Record) if self.name_is(node, l) => {
                let Some(dp) = self.record_dp(ds, node, &mut Vec::new()) else {
                    return false;
                };
                if dp.total() == 0 {
                    return false;
                }
                let comps = &self.children[node.lo as usize..node.hi as usize];
                let found = dp
                    .leftmost()
                    .zip(ds)
                    .all(|(cell, d)| self.first_into(d, comps[cell.pos as usize], out));
                found
            }
            _ => false,
        }
    }
}

/// The filled DP of one loose record: component `i`'s cells are
/// `cells[spans[i].0..spans[i].1]`, positions ascending.
struct RecordDp {
    cells: Vec<Cell>,
    spans: Vec<(usize, usize)>,
}

impl RecordDp {
    /// Total number of assignments (saturating).
    fn total(&self) -> u64 {
        match self.spans.first() {
            None => 1, // no components: every position is bottom
            Some(&(lo, hi)) => self.cells[lo..hi].first().map_or(0, |c| c.suffix),
        }
    }

    /// The leftmost assignment of a DP with at least one: each component
    /// at the first position after its predecessor's that still has a
    /// completion.
    fn leftmost(&self) -> impl Iterator<Item = &Cell> {
        let mut after = 0u32;
        self.spans.iter().map(move |&(lo, hi)| {
            let cell = self.cells[lo..hi]
                .iter()
                .find(|c| c.pos >= after)
                .expect("a record with completions has a leftmost assignment");
            after = cell.pos + 1;
            cell
        })
    }
}

impl std::fmt::Display for SchemaIndex {
    /// The indexed attribute `N` in canonical notation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn walk(idx: &SchemaIndex, at: u32, s: &mut String) {
            let node = &idx.nodes[at as usize];
            if node.kind == Kind::Null {
                s.push('λ');
                return;
            }
            s.push_str(idx.name(node));
            match node.kind {
                Kind::Record => {
                    s.push('(');
                    for (i, &c) in idx.children[node.lo as usize..node.hi as usize]
                        .iter()
                        .enumerate()
                    {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        walk(idx, c, s);
                    }
                    s.push(')');
                }
                Kind::List => {
                    s.push('[');
                    walk(idx, node.lo, s);
                    s.push(']');
                }
                Kind::Null | Kind::Flat => {}
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        f.write_str(&s)
    }
}
