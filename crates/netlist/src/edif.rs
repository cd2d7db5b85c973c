//! EDIF 2 0 0 netlist frontend: S-expression parser, typed AST, hierarchy
//! flattener and writer.
//!
//! This is the gate through which *real* designs enter the
//! desynchronization flow: synthesis tools emit hierarchical EDIF, and this
//! module turns it into the flat, [`Symbol`]-interned [`Netlist`] every
//! other crate consumes. Three layers:
//!
//! 1. **Lexer/parser** — a positioned S-expression reader producing a typed
//!    AST ([`EdifAst`]: libraries → cells → views with interface ports,
//!    instances and nets). Every diagnostic ([`EdifError`]) carries the
//!    line/column it was detected at. Quoted strings, `(rename ...)`
//!    aliases and unknown keyword forms (properties, timestamps, ...) are
//!    handled/skipped the way real tool output requires.
//! 2. **Flattener** — a worklist-driven, depth-first hierarchy expansion:
//!    instances of cells defined in the file are expanded with `/`-joined
//!    hierarchical names; instance pins are stitched to parent nets through
//!    a union-find (EDIF expresses connectivity per-cell, so crossing a
//!    hierarchy boundary aliases two net declarations onto one electrical
//!    node); leaf instances map onto the canonical [`CellKind`] library
//!    through the same pin tables as the structural-Verilog reader
//!    ([`CellKind::order_connections`]). An instance of a cell that is
//!    neither defined in the file nor a known primitive is a typed
//!    [`EdifError::UnknownPrimitive`] naming the offender.
//! 3. **Writer** — [`to_edif`] serializes a flat netlist back out (one
//!    design cell plus an interface-only primitive library), so generated
//!    circuits round-trip: `netlist → to_edif → from_edif` reproduces the
//!    netlist *exactly* (full [`Netlist`] equality, same ids, same
//!    [`Netlist::structural_hash`]).
//!
//! # Example
//!
//! ```
//! use desync_netlist::{from_edif, to_edif, CellKind, Netlist};
//!
//! # fn main() -> Result<(), desync_netlist::EdifError> {
//! let mut n = Netlist::new("toy");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let y = n.add_output("y");
//! n.add_gate("g0", CellKind::Nand, &[a, b], y).unwrap();
//! let text = to_edif(&n);
//! let back = from_edif(&text)?;
//! assert_eq!(back, n);
//! # Ok(())
//! # }
//! ```

use crate::cell::{Cell, CellKind};
use crate::error::NetlistError;
use crate::intern::Symbol;
use crate::netlist::{NetId, Netlist};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A source position (1-based line and column) inside an EDIF file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced while lexing, parsing or flattening EDIF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdifError {
    /// The S-expression reader or the AST extraction failed; the position
    /// points at the offending token or form.
    Parse {
        /// Where the problem was detected.
        pos: Pos,
        /// Human-readable description.
        message: String,
    },
    /// An instance references a cell that is neither defined in the file
    /// nor a known canonical primitive.
    UnknownPrimitive {
        /// The unresolvable cell name.
        cell: String,
        /// Hierarchical path of the offending instance.
        instance: String,
    },
    /// A leaf instance is missing a required pin of its primitive.
    MissingPin {
        /// Hierarchical path of the offending instance.
        instance: String,
        /// The canonical pin name that was not connected.
        pin: String,
    },
    /// The hierarchy instantiates a cell inside itself (directly or
    /// transitively), so flattening would not terminate.
    RecursiveHierarchy {
        /// The cell on the cycle.
        cell: String,
    },
    /// The file defines no top cell (no `(design ...)` and no cells).
    MissingTop,
    /// Lists nest deeper than [`MAX_NESTING_DEPTH`] levels. The reader
    /// recurses once per open list, so it stops here instead of letting a
    /// hostile file overflow the stack.
    NestingTooDeep {
        /// The `(` that would open the first list past the limit.
        pos: Pos,
        /// The nesting limit in force.
        limit: usize,
    },
    /// Rebuilding the flat netlist failed structurally (duplicate names
    /// after flattening, arity mismatches, ...).
    Netlist(NetlistError),
}

impl fmt::Display for EdifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdifError::Parse { pos, message } => write!(f, "edif parse error at {pos}: {message}"),
            EdifError::UnknownPrimitive { cell, instance } => write!(
                f,
                "instance `{instance}` references `{cell}`, which is neither defined in the file \
                 nor a known primitive"
            ),
            EdifError::MissingPin { instance, pin } => {
                write!(f, "instance `{instance}` is missing pin `{pin}`")
            }
            EdifError::RecursiveHierarchy { cell } => {
                write!(f, "cell `{cell}` instantiates itself (recursive hierarchy)")
            }
            EdifError::MissingTop => write!(f, "edif file defines no top cell"),
            EdifError::NestingTooDeep { pos, limit } => {
                write!(f, "edif lists nest deeper than {limit} levels at {pos}")
            }
            EdifError::Netlist(e) => write!(f, "flattened netlist is malformed: {e}"),
        }
    }
}

impl std::error::Error for EdifError {}

impl From<NetlistError> for EdifError {
    fn from(e: NetlistError) -> Self {
        EdifError::Netlist(e)
    }
}

fn err(pos: Pos, message: impl Into<String>) -> EdifError {
    EdifError::Parse {
        pos,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// S-expression layer
// ---------------------------------------------------------------------------

/// A parsed S-expression with source positions.
#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    /// A bare atom (identifier or number).
    Atom(String, Pos),
    /// A quoted string literal (quotes stripped).
    Str(String, Pos),
    /// A parenthesized list.
    List(Vec<Sexp>, Pos),
}

impl Sexp {
    fn pos(&self) -> Pos {
        match self {
            Sexp::Atom(_, p) | Sexp::Str(_, p) | Sexp::List(_, p) => *p,
        }
    }

    /// The lowercased head keyword of a list, if this is a non-empty list
    /// starting with an atom.
    fn keyword(&self) -> Option<String> {
        match self {
            Sexp::List(items, _) => match items.first() {
                Some(Sexp::Atom(s, _)) => Some(s.to_ascii_lowercase()),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Deepest list nesting the EDIF reader accepts. Real netlists nest about a
/// dozen levels (`edif` → `library` → `cell` → `view` → `contents` → `net`
/// → `joined` → `portRef` → ...); the limit leaves ample headroom while
/// keeping the reader's recursion far inside a 2 MiB thread stack.
pub const MAX_NESTING_DEPTH: usize = 256;

/// Byte-slice lexer/reader. EDIF syntax is pure ASCII at the structural
/// level (parens, whitespace, quotes); any UTF-8 payload bytes pass through
/// inside atoms and strings untouched, so byte indexing is safe here and an
/// order of magnitude faster than a `char` iterator on multi-megabyte
/// netlists.
struct SexpParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    line: usize,
    line_start: usize,
    /// Lists currently open around the read position.
    depth: usize,
}

impl<'a> SexpParser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            at: 0,
            line: 1,
            line_start: 0,
            depth: 0,
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.at - self.line_start + 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.at += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.at;
        }
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.bump();
        }
    }

    /// Parses one S-expression.
    fn parse(&mut self) -> Result<Sexp, EdifError> {
        self.skip_whitespace();
        let pos = self.pos();
        match self.peek() {
            None => Err(err(pos, "unexpected end of file")),
            Some(b'(') => {
                if self.depth == MAX_NESTING_DEPTH {
                    return Err(EdifError::NestingTooDeep {
                        pos,
                        limit: MAX_NESTING_DEPTH,
                    });
                }
                self.bump();
                self.depth += 1;
                let list = self.parse_list_items(pos);
                self.depth -= 1;
                list
            }
            Some(b')') => Err(err(pos, "unexpected `)`")),
            Some(b'"') => {
                self.bump();
                let start = self.at;
                loop {
                    match self.bump() {
                        None => return Err(err(pos, "unterminated string literal")),
                        Some(b'"') => {
                            let s = self.text[start..self.at - 1].to_string();
                            return Ok(Sexp::Str(s, pos));
                        }
                        // EDIF `%xx%` escapes pass through untouched.
                        Some(_) => {}
                    }
                }
            }
            Some(_) => {
                let start = self.at;
                while let Some(b) = self.peek() {
                    if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b'"' {
                        break;
                    }
                    self.bump();
                }
                Ok(Sexp::Atom(self.text[start..self.at].to_string(), pos))
            }
        }
    }

    /// Parses the items of a list whose `(` at `pos` was just consumed,
    /// through its closing `)`.
    fn parse_list_items(&mut self, pos: Pos) -> Result<Sexp, EdifError> {
        let mut items = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                None => return Err(err(pos, "unclosed `(`")),
                Some(b')') => {
                    self.bump();
                    return Ok(Sexp::List(items, pos));
                }
                Some(_) => items.push(self.parse()?),
            }
        }
    }

    /// Parses the single top-level expression and rejects trailing junk.
    fn parse_document(&mut self) -> Result<Sexp, EdifError> {
        let top = self.parse()?;
        self.skip_whitespace();
        let pos = self.pos();
        if self.peek().is_some() {
            return Err(err(pos, "trailing content after the top-level form"));
        }
        Ok(top)
    }
}

// ---------------------------------------------------------------------------
// Typed AST
// ---------------------------------------------------------------------------

/// Direction of an EDIF interface port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdifDirection {
    /// `(direction INPUT)`
    Input,
    /// `(direction OUTPUT)`
    Output,
}

/// An interface port of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifPort {
    /// Port name.
    pub name: Symbol,
    /// Declared direction.
    pub direction: EdifDirection,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// An instance of another cell inside a cell's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifInstance {
    /// Instance name.
    pub name: Symbol,
    /// Referenced cell name (`cellRef`).
    pub cell_ref: Symbol,
    /// Referenced library (`libraryRef`), when qualified.
    pub library_ref: Option<Symbol>,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// One connection of a net: a port, optionally on an instance (own
/// interface port when `instance` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct EdifPortRef {
    /// Referenced port name.
    pub port: Symbol,
    /// Instance carrying the port; `None` for the cell's own interface.
    pub instance: Option<Symbol>,
    /// Source position of the reference.
    pub pos: Pos,
}

/// A net declaration: a named electrical node joining port references.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifNet {
    /// Net name.
    pub name: Symbol,
    /// The joined connections.
    pub portrefs: Vec<EdifPortRef>,
    /// Source position of the declaration.
    pub pos: Pos,
}

/// A cell definition (interface plus the contents of its netlist view).
#[derive(Debug, Clone, PartialEq)]
pub struct EdifCell {
    /// Cell name.
    pub name: Symbol,
    /// Interface ports, in declaration order.
    pub ports: Vec<EdifPort>,
    /// Child instances, in declaration order.
    pub instances: Vec<EdifInstance>,
    /// Net declarations, in declaration order.
    pub nets: Vec<EdifNet>,
    /// Source position of the declaration.
    pub pos: Pos,
}

impl EdifCell {
    /// Whether this cell is a leaf declaration (interface only, no
    /// contents) — the shape technology libraries use for primitives.
    pub fn is_leaf(&self) -> bool {
        self.instances.is_empty() && self.nets.is_empty()
    }
}

/// A library: a named group of cells.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifLibrary {
    /// Library name.
    pub name: Symbol,
    /// Cell definitions, in declaration order.
    pub cells: Vec<EdifCell>,
}

/// The parsed EDIF file.
#[derive(Debug, Clone, PartialEq)]
pub struct EdifAst {
    /// Design name from the `(edif ...)` head.
    pub name: Symbol,
    /// Libraries in declaration order (`library` and `external` alike).
    pub libraries: Vec<EdifLibrary>,
    /// Explicit top cell from `(design ... (cellRef ...))`, when present.
    pub design: Option<(Symbol, Option<Symbol>)>,
}

/// Extracts a name, accepting a bare atom or a `(rename ident "string")`
/// form; the original string spelling wins for renames.
fn parse_name(sexp: &Sexp) -> Result<Symbol, EdifError> {
    match sexp {
        Sexp::Atom(s, _) => Ok(Symbol::intern(s)),
        Sexp::Str(s, _) => Ok(Symbol::intern(s)),
        Sexp::List(items, pos) => {
            if sexp.keyword().as_deref() == Some("rename") {
                match items.get(2).or_else(|| items.get(1)) {
                    Some(Sexp::Str(s, _)) => Ok(Symbol::intern(s)),
                    Some(Sexp::Atom(s, _)) => Ok(Symbol::intern(s)),
                    _ => Err(err(*pos, "malformed `(rename ...)` form")),
                }
            } else {
                Err(err(*pos, "expected a name"))
            }
        }
    }
}

fn list_items<'s>(sexp: &'s Sexp, what: &str) -> Result<&'s [Sexp], EdifError> {
    match sexp {
        Sexp::List(items, _) => Ok(items),
        other => Err(err(other.pos(), format!("expected {what} list"))),
    }
}

fn parse_port(items: &[Sexp], pos: Pos) -> Result<EdifPort, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(port ...)` is missing its name"))?,
    )?;
    let mut direction = None;
    for item in &items[2..] {
        if item.keyword().as_deref() == Some("direction") {
            let dir_items = list_items(item, "direction")?;
            let dir = match dir_items.get(1) {
                Some(Sexp::Atom(s, _)) => s.to_ascii_uppercase(),
                _ => return Err(err(item.pos(), "malformed `(direction ...)`")),
            };
            direction = Some(match dir.as_str() {
                "INPUT" => EdifDirection::Input,
                "OUTPUT" => EdifDirection::Output,
                other => {
                    return Err(err(
                        item.pos(),
                        format!("unsupported port direction `{other}` on port `{name}`"),
                    ))
                }
            });
        }
    }
    let direction =
        direction.ok_or_else(|| err(pos, format!("port `{name}` declares no direction")))?;
    Ok(EdifPort {
        name,
        direction,
        pos,
    })
}

/// Extracts `(cellRef NAME (libraryRef LIB))` from a form's items.
fn find_cell_ref(items: &[Sexp]) -> Result<Option<(Symbol, Option<Symbol>)>, EdifError> {
    for item in items {
        match item.keyword().as_deref() {
            Some("cellref") => {
                let cr = list_items(item, "cellRef")?;
                let cell = parse_name(
                    cr.get(1)
                        .ok_or_else(|| err(item.pos(), "`(cellRef ...)` is missing its name"))?,
                )?;
                let mut library = None;
                for sub in &cr[2..] {
                    if sub.keyword().as_deref() == Some("libraryref") {
                        let lr = list_items(sub, "libraryRef")?;
                        library = Some(parse_name(lr.get(1).ok_or_else(|| {
                            err(sub.pos(), "`(libraryRef ...)` is missing its name")
                        })?)?);
                    }
                }
                return Ok(Some((cell, library)));
            }
            // `(viewRef VIEW (cellRef ...))`: recurse into the nested form.
            Some("viewref") => {
                let vr = list_items(item, "viewRef")?;
                if let Some(found) = find_cell_ref(&vr[1..])? {
                    return Ok(Some(found));
                }
            }
            _ => {}
        }
    }
    Ok(None)
}

fn parse_instance(items: &[Sexp], pos: Pos) -> Result<EdifInstance, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(instance ...)` is missing its name"))?,
    )?;
    let (cell_ref, library_ref) = find_cell_ref(&items[2..])?
        .ok_or_else(|| err(pos, format!("instance `{name}` has no `(cellRef ...)`")))?;
    Ok(EdifInstance {
        name,
        cell_ref,
        library_ref,
        pos,
    })
}

fn parse_net(items: &[Sexp], pos: Pos) -> Result<EdifNet, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(net ...)` is missing its name"))?,
    )?;
    let mut portrefs = Vec::new();
    for item in &items[2..] {
        if item.keyword().as_deref() == Some("joined") {
            for joined in &list_items(item, "joined")?[1..] {
                if joined.keyword().as_deref() != Some("portref") {
                    return Err(err(joined.pos(), "expected `(portRef ...)` inside joined"));
                }
                let pr = list_items(joined, "portRef")?;
                let port =
                    parse_name(pr.get(1).ok_or_else(|| {
                        err(joined.pos(), "`(portRef ...)` is missing its name")
                    })?)?;
                let mut instance = None;
                for sub in &pr[2..] {
                    if sub.keyword().as_deref() == Some("instanceref") {
                        let ir = list_items(sub, "instanceRef")?;
                        instance = Some(parse_name(ir.get(1).ok_or_else(|| {
                            err(sub.pos(), "`(instanceRef ...)` is missing its name")
                        })?)?);
                    }
                }
                portrefs.push(EdifPortRef {
                    port,
                    instance,
                    pos: joined.pos(),
                });
            }
        }
    }
    Ok(EdifNet {
        name,
        portrefs,
        pos,
    })
}

fn parse_cell(items: &[Sexp], pos: Pos) -> Result<EdifCell, EdifError> {
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(pos, "`(cell ...)` is missing its name"))?,
    )?;
    let mut cell = EdifCell {
        name,
        ports: Vec::new(),
        instances: Vec::new(),
        nets: Vec::new(),
        pos,
    };
    for item in &items[2..] {
        if item.keyword().as_deref() == Some("view") {
            let view_items = list_items(item, "view")?;
            for vi in &view_items[1..] {
                match vi.keyword().as_deref() {
                    Some("interface") => {
                        for port in &list_items(vi, "interface")?[1..] {
                            if port.keyword().as_deref() == Some("port") {
                                cell.ports
                                    .push(parse_port(list_items(port, "port")?, port.pos())?);
                            }
                        }
                    }
                    Some("contents") => {
                        for content in &list_items(vi, "contents")?[1..] {
                            match content.keyword().as_deref() {
                                Some("instance") => cell.instances.push(parse_instance(
                                    list_items(content, "instance")?,
                                    content.pos(),
                                )?),
                                Some("net") => cell
                                    .nets
                                    .push(parse_net(list_items(content, "net")?, content.pos())?),
                                // Properties, comments, timestamps, ...
                                _ => {}
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(cell)
}

/// Parses EDIF text into the typed AST.
///
/// # Errors
///
/// Returns [`EdifError::Parse`] with the offending position on malformed
/// input.
pub fn parse_edif(text: &str) -> Result<EdifAst, EdifError> {
    let top = SexpParser::new(text).parse_document()?;
    if top.keyword().as_deref() != Some("edif") {
        return Err(err(top.pos(), "expected `(edif ...)` at top level"));
    }
    let items = list_items(&top, "edif")?;
    let name = parse_name(
        items
            .get(1)
            .ok_or_else(|| err(top.pos(), "`(edif ...)` is missing its name"))?,
    )?;
    let mut ast = EdifAst {
        name,
        libraries: Vec::new(),
        design: None,
    };
    for item in &items[2..] {
        match item.keyword().as_deref() {
            Some("library") | Some("external") => {
                let lib_items = list_items(item, "library")?;
                let lib_name = parse_name(
                    lib_items
                        .get(1)
                        .ok_or_else(|| err(item.pos(), "`(library ...)` is missing its name"))?,
                )?;
                let mut library = EdifLibrary {
                    name: lib_name,
                    cells: Vec::new(),
                };
                for li in &lib_items[2..] {
                    if li.keyword().as_deref() == Some("cell") {
                        library
                            .cells
                            .push(parse_cell(list_items(li, "cell")?, li.pos())?);
                    }
                }
                ast.libraries.push(library);
            }
            Some("design") => {
                let design_items = list_items(item, "design")?;
                ast.design = find_cell_ref(&design_items[1..])?;
                if ast.design.is_none() {
                    return Err(err(item.pos(), "`(design ...)` has no `(cellRef ...)`"));
                }
            }
            // edifVersion, edifLevel, keywordMap, status, comments, ...
            _ => {}
        }
    }
    Ok(ast)
}

// ---------------------------------------------------------------------------
// Flattener
// ---------------------------------------------------------------------------

/// Union-find over flat net slots; roots are always the earliest-created
/// slot of their class, so the surviving name/id order is deterministic.
struct NetForest {
    parent: Vec<usize>,
    names: Vec<Symbol>,
}

impl NetForest {
    fn new() -> Self {
        Self {
            parent: Vec::new(),
            names: Vec::new(),
        }
    }

    fn make(&mut self, name: Symbol) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.names.push(name);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges two classes, keeping the *older* slot as root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        let (root, child) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[child] = root;
        root
    }
}

/// A resolved leaf instance awaiting final net-id assignment.
struct FlatInstance {
    name: String,
    kind: CellKind,
    conns: Vec<(String, usize)>,
}

struct Flattener<'a> {
    /// (library, cell) and bare cell name → definition. Bare names map to
    /// the *last* definition, matching the definition-before-use convention.
    by_qualified: HashMap<(Symbol, Symbol), &'a EdifCell>,
    by_name: HashMap<Symbol, &'a EdifCell>,
    nets: NetForest,
    instances: Vec<FlatInstance>,
}

/// One stack entry of the depth-first expansion.
struct Frame<'a> {
    cell: &'a EdifCell,
    /// Hierarchical prefix including the trailing separator (empty at top).
    prefix: String,
    /// Connections of child instances, grouped per instance so a leaf can
    /// collect its pins in O(pins) instead of scanning the whole frame.
    inst_conns: HashMap<Symbol, Vec<(Symbol, usize)>>,
    next_instance: usize,
}

impl<'a> Flattener<'a> {
    fn new(ast: &'a EdifAst) -> Self {
        let mut by_qualified = HashMap::new();
        let mut by_name = HashMap::new();
        for lib in &ast.libraries {
            for cell in &lib.cells {
                by_qualified.insert((lib.name, cell.name), cell);
                by_name.insert(cell.name, cell);
            }
        }
        Self {
            by_qualified,
            by_name,
            nets: NetForest::new(),
            instances: Vec::new(),
        }
    }

    fn resolve(&self, inst: &EdifInstance) -> Option<&'a EdifCell> {
        if let Some(lib) = inst.library_ref {
            return self.by_qualified.get(&(lib, inst.cell_ref)).copied();
        }
        self.by_name.get(&inst.cell_ref).copied()
    }

    /// Processes a cell's net declarations: allocates/unions net slots and
    /// records child pin connections into the frame.
    fn wire_frame(
        &mut self,
        frame: &mut Frame<'a>,
        bindings: &HashMap<Symbol, usize>,
    ) -> Result<(), EdifError> {
        for net in &frame.cell.nets {
            // An own-interface portref aliases this net onto the parent's
            // slot; without one the net is a fresh electrical node.
            let mut slot: Option<usize> = None;
            for pr in &net.portrefs {
                if pr.instance.is_none() {
                    if let Some(&bound) = bindings.get(&pr.port) {
                        slot = Some(match slot {
                            None => bound,
                            Some(existing) => self.nets.union(existing, bound),
                        });
                    }
                    // An unbound own port (unconnected in the parent) does
                    // not force a slot: the fresh-net path below covers it.
                }
            }
            let slot = slot.unwrap_or_else(|| {
                let name = if frame.prefix.is_empty() {
                    net.name
                } else {
                    Symbol::intern(&format!("{}{}", frame.prefix, net.name))
                };
                self.nets.make(name)
            });
            for pr in &net.portrefs {
                if let Some(inst) = pr.instance {
                    let conns = frame.inst_conns.entry(inst).or_default();
                    match conns.iter_mut().find(|(p, _)| *p == pr.port) {
                        // The same pin joined by two nets shorts them.
                        Some((_, existing)) => {
                            *existing = self.nets.union(*existing, slot);
                        }
                        None => conns.push((pr.port, slot)),
                    }
                }
            }
        }
        Ok(())
    }

    /// Expands `top` depth-first with an explicit worklist.
    fn run(&mut self, top: &'a EdifCell) -> Result<(), EdifError> {
        let mut top_frame = Frame {
            cell: top,
            prefix: String::new(),
            inst_conns: HashMap::new(),
            next_instance: 0,
        };
        // Top interface ports bind lazily: the net declaration joining a
        // port names (and orders) the node, which is what lets a
        // write→parse round-trip reproduce net ids exactly.
        let top_bindings = HashMap::new();
        self.wire_frame(&mut top_frame, &top_bindings)?;
        let mut stack: Vec<Frame<'a>> = vec![top_frame];

        while let Some(frame) = stack.last_mut() {
            // Detach the cell reference (`&'a`) from the frame borrow so the
            // leaf branch below can mutate `frame.inst_conns`.
            let cell = frame.cell;
            if frame.next_instance >= cell.instances.len() {
                stack.pop();
                continue;
            }
            let inst = &cell.instances[frame.next_instance];
            frame.next_instance += 1;

            match self.resolve(inst) {
                Some(child) if !child.is_leaf() => {
                    // Hierarchical: guard against recursion, bind the child's
                    // interface ports to the parent's connections, descend.
                    if stack.iter().any(|f| std::ptr::eq(f.cell, child)) {
                        return Err(EdifError::RecursiveHierarchy {
                            cell: child.name.to_string(),
                        });
                    }
                    let frame = stack.last().expect("frame still on stack");
                    let mut bindings = HashMap::new();
                    if let Some(conns) = frame.inst_conns.get(&inst.name) {
                        for port in &child.ports {
                            if let Some(&(_, slot)) = conns.iter().find(|(p, _)| *p == port.name) {
                                bindings.insert(port.name, slot);
                            }
                        }
                    }
                    let prefix = format!("{}{}/", frame.prefix, inst.name);
                    let mut child_frame = Frame {
                        cell: child,
                        prefix,
                        inst_conns: HashMap::new(),
                        next_instance: 0,
                    };
                    self.wire_frame(&mut child_frame, &bindings)?;
                    stack.push(child_frame);
                }
                resolved => {
                    // Leaf: defined-but-empty cells and references into
                    // undimmed external libraries both map onto the canonical
                    // primitive set by name.
                    let path = format!("{}{}", frame.prefix, inst.name);
                    let kind =
                        CellKind::from_canonical_name(inst.cell_ref.as_str()).ok_or_else(|| {
                            EdifError::UnknownPrimitive {
                                cell: inst.cell_ref.to_string(),
                                instance: path.clone(),
                            }
                        })?;
                    let _ = resolved; // the declaration (if any) is interface-only
                    let conns: Vec<(String, usize)> = frame
                        .inst_conns
                        .remove(&inst.name)
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(port, slot)| (port.to_string(), slot))
                        .collect();
                    self.instances.push(FlatInstance {
                        name: path,
                        kind,
                        conns,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Flattens a parsed EDIF AST into a single flat [`Netlist`].
///
/// The top cell is the explicit `(design ...)` reference when present,
/// otherwise the last cell of the last library (definitions precede uses).
/// Hierarchical instance and net names are joined with `/`.
///
/// # Errors
///
/// * [`EdifError::UnknownPrimitive`] when a leaf instance's cell is not a
///   canonical primitive.
/// * [`EdifError::MissingPin`] when a leaf instance lacks a required pin.
/// * [`EdifError::RecursiveHierarchy`] on self-instantiating cells.
/// * [`EdifError::MissingTop`] / [`EdifError::Parse`] on unresolvable tops.
/// * [`EdifError::Netlist`] when the flat result is structurally invalid.
pub fn flatten(ast: &EdifAst) -> Result<Netlist, EdifError> {
    let mut fl = Flattener::new(ast);
    let top: &EdifCell = match ast.design {
        Some((cell, lib)) => match lib {
            Some(l) => *fl.by_qualified.get(&(l, cell)).ok_or_else(|| {
                err(
                    Pos { line: 1, col: 1 },
                    format!("design cellRef `{cell}` (library `{l}`) is not defined"),
                )
            })?,
            None => *fl.by_name.get(&cell).ok_or_else(|| {
                err(
                    Pos { line: 1, col: 1 },
                    format!("design cellRef `{cell}` is not defined"),
                )
            })?,
        },
        None => ast
            .libraries
            .iter()
            .rev()
            .flat_map(|l| l.cells.last())
            .next()
            .ok_or(EdifError::MissingTop)?,
    };

    fl.run(top)?;

    let Flattener {
        mut nets,
        instances,
        ..
    } = fl;

    // Net slots → netlist ids, roots only, in creation order.
    let mut netlist = Netlist::new(top.name);
    let mut slot_to_id: Vec<Option<NetId>> = vec![None; nets.parent.len()];
    for (slot, id) in slot_to_id.iter_mut().enumerate() {
        if nets.find(slot) == slot {
            *id = Some(netlist.add_net(nets.names[slot]));
        }
    }
    fn net_of(nets: &mut NetForest, slot_to_id: &[Option<NetId>], slot: usize) -> NetId {
        let root = nets.find(slot);
        slot_to_id[root].expect("root slot was assigned an id")
    }

    // Interface ports, in declaration order. A port that no net joined is a
    // dangling port: it still becomes a (trailing) net so the direction
    // lists stay faithful to the interface.
    let mut slot_of_name: HashMap<Symbol, usize> = HashMap::new();
    for (slot, &name) in nets.names.iter().enumerate() {
        slot_of_name.entry(name).or_insert(slot);
    }
    let mut port_nets: HashMap<Symbol, usize> = HashMap::new();
    for net in &top.nets {
        for pr in &net.portrefs {
            if pr.instance.is_none() {
                // Re-find the slot this net ended up in by name: nets of the
                // top frame were created (or merged) in declaration order.
                if let Some(&slot) = slot_of_name.get(&net.name) {
                    port_nets.entry(pr.port).or_insert(slot);
                }
            }
        }
    }
    for port in &top.ports {
        let slot = match port_nets.get(&port.name) {
            Some(&s) => s,
            None => nets.make(port.name),
        };
        if slot >= slot_to_id.len() {
            slot_to_id.resize(slot + 1, None);
        }
        let root = nets.find(slot);
        if slot_to_id[root].is_none() {
            slot_to_id[root] = Some(netlist.add_net(nets.names[root]));
        }
        let id = net_of(&mut nets, &slot_to_id, slot);
        match port.direction {
            EdifDirection::Input => netlist.mark_input(id),
            EdifDirection::Output => netlist.mark_output(id),
        }
    }

    // Leaf instances, in depth-first order.
    for inst in instances {
        let conns: Vec<(String, NetId)> = inst
            .conns
            .iter()
            .map(|(port, slot)| (port.clone(), net_of(&mut nets, &slot_to_id, *slot)))
            .collect();
        let (inputs, output) =
            inst.kind
                .order_connections(&conns)
                .map_err(|pin| EdifError::MissingPin {
                    instance: inst.name.clone(),
                    pin: pin.to_string(),
                })?;
        netlist.add_cell(Cell {
            name: Symbol::intern(&inst.name),
            kind: inst.kind,
            inputs,
            output,
        })?;
    }

    Ok(netlist)
}

/// Parses EDIF text and flattens it into a flat [`Netlist`] in one step.
///
/// # Errors
///
/// Any [`EdifError`] from [`parse_edif`] or [`flatten`].
pub fn from_edif(text: &str) -> Result<Netlist, EdifError> {
    flatten(&parse_edif(text)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Whether a name is a plain EDIF identifier (letter start, alphanumeric or
/// underscore body) or needs a `(rename ...)` alias.
fn is_plain_ident(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Emits a name, wrapping non-identifier spellings in `(rename &nN "...")`
/// with a uniqueness tag.
fn emit_name(out: &mut String, name: &str, tag: &str) {
    if is_plain_ident(name) {
        out.push_str(name);
    } else {
        let _ = write!(out, "(rename &{tag} \"{name}\")");
    }
}

/// Serializes a flat netlist as EDIF 2 0 0.
///
/// The output carries two libraries — `PRIMS` holding interface-only
/// declarations of every referenced primitive, and `DESIGNS` holding the
/// design cell — plus an explicit `(design ...)` pointing at the top.
/// Nets are emitted in id order and instances in cell order, so
/// [`from_edif`] reproduces the netlist exactly (ids, names, hash).
pub fn to_edif(netlist: &Netlist) -> String {
    let mut out = String::new();
    let name = netlist.name();
    let _ = write!(out, "(edif ");
    emit_name(&mut out, name, "top");
    let _ = writeln!(out);
    let _ = writeln!(out, "  (edifVersion 2 0 0)");
    let _ = writeln!(out, "  (edifLevel 0)");
    let _ = writeln!(out, "  (keywordMap (keywordLevel 0))");

    // Primitive library: one interface-only cell per referenced
    // (kind, arity) pair, in order of first use.
    let mut prims: Vec<(String, CellKind, usize)> = Vec::new();
    for (_, cell) in netlist.cells() {
        let prim = crate::verilog::instance_cell_name(cell.kind, cell.inputs.len());
        if !prims.iter().any(|(p, _, _)| *p == prim) {
            prims.push((prim, cell.kind, cell.inputs.len()));
        }
    }
    let _ = writeln!(out, "  (library PRIMS");
    let _ = writeln!(out, "    (edifLevel 0)");
    let _ = writeln!(out, "    (technology (numberDefinition))");
    for (prim, kind, arity) in &prims {
        let _ = writeln!(out, "    (cell {prim} (cellType GENERIC)");
        let _ = writeln!(out, "      (view netlist (viewType NETLIST)");
        let _ = write!(out, "        (interface");
        for pin in kind.input_pin_names(*arity) {
            let _ = write!(out, " (port {pin} (direction INPUT))");
        }
        let _ = write!(out, " (port {} (direction OUTPUT))", kind.output_pin_name());
        let _ = writeln!(out, ")))");
    }
    let _ = writeln!(out, "  )");

    // The design cell.
    let _ = writeln!(out, "  (library DESIGNS");
    let _ = writeln!(out, "    (edifLevel 0)");
    let _ = writeln!(out, "    (technology (numberDefinition))");
    let _ = write!(out, "    (cell ");
    emit_name(&mut out, name, "top");
    let _ = writeln!(out, " (cellType GENERIC)");
    let _ = writeln!(out, "      (view netlist (viewType NETLIST)");
    let _ = writeln!(out, "        (interface");
    for &id in netlist.inputs() {
        let _ = write!(out, "          (port ");
        emit_name(
            &mut out,
            netlist.net(id).name.as_str(),
            &format!("p{}", id.0),
        );
        let _ = writeln!(out, " (direction INPUT))");
    }
    for &id in netlist.outputs() {
        let _ = write!(out, "          (port ");
        emit_name(
            &mut out,
            netlist.net(id).name.as_str(),
            &format!("p{}", id.0),
        );
        let _ = writeln!(out, " (direction OUTPUT))");
    }
    let _ = writeln!(out, "        )");
    let _ = writeln!(out, "        (contents");
    for (id, cell) in netlist.cells() {
        let prim = crate::verilog::instance_cell_name(cell.kind, cell.inputs.len());
        let _ = write!(out, "          (instance ");
        emit_name(&mut out, cell.name.as_str(), &format!("i{}", id.0));
        let _ = writeln!(
            out,
            " (viewRef netlist (cellRef {prim} (libraryRef PRIMS))))"
        );
    }

    // Per-net connection lists: cells in id order, output pin first. Each
    // entry is (pin name, None for a top-level portRef | Some((instance
    // name, instance id)) for an instance portRef).
    type JoinedRef = (String, Option<(Symbol, u32)>);
    let mut joined: Vec<Vec<JoinedRef>> = vec![Vec::new(); netlist.num_nets()];
    let port_set: std::collections::HashSet<NetId> = netlist
        .inputs()
        .iter()
        .chain(netlist.outputs().iter())
        .copied()
        .collect();
    for (id, net) in netlist.nets() {
        if port_set.contains(&id) {
            joined[id.index()].push((net.name.to_string(), None));
        }
    }
    for (id, cell) in netlist.cells() {
        let pins = cell.kind.input_pin_names(cell.inputs.len());
        joined[cell.output.index()].push((
            cell.kind.output_pin_name().to_string(),
            Some((cell.name, id.0)),
        ));
        for (pin, &net) in pins.iter().zip(cell.inputs.iter()) {
            joined[net.index()].push((pin.to_string(), Some((cell.name, id.0))));
        }
    }
    for (id, net) in netlist.nets() {
        let _ = write!(out, "          (net ");
        emit_name(&mut out, net.name.as_str(), &format!("n{}", id.0));
        let _ = write!(out, " (joined");
        for (pin, inst) in &joined[id.index()] {
            match inst {
                None => {
                    let _ = write!(out, " (portRef ");
                    emit_name(&mut out, pin, &format!("p{}", id.0));
                    let _ = write!(out, ")");
                }
                Some((inst_name, inst_id)) => {
                    let _ = write!(out, " (portRef {pin} (instanceRef ");
                    emit_name(&mut out, inst_name.as_str(), &format!("i{inst_id}"));
                    let _ = write!(out, "))");
                }
            }
        }
        let _ = writeln!(out, "))");
    }
    let _ = writeln!(out, "        )");
    let _ = writeln!(out, "      )");
    let _ = writeln!(out, "    )");
    let _ = writeln!(out, "  )");
    let _ = write!(out, "  (design ");
    emit_name(&mut out, name, "top");
    let _ = write!(out, " (cellRef ");
    emit_name(&mut out, name, "top");
    let _ = writeln!(out, " (libraryRef DESIGNS)))");
    let _ = writeln!(out, ")");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut n = Netlist::new("sample");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_output("y");
        let nand = n.add_net("w_nand");
        let q = n.add_net("q");
        n.add_gate("g0", CellKind::Nand, &[a, b], nand).unwrap();
        n.add_dff("r0", nand, clk, q).unwrap();
        n.add_gate("g1", CellKind::Not, &[q], y).unwrap();
        n
    }

    #[test]
    fn writer_roundtrip_is_exact() {
        let original = sample();
        let text = to_edif(&original);
        let back = from_edif(&text).unwrap();
        assert_eq!(back, original, "round-trip must reproduce the netlist");
        assert_eq!(back.structural_hash(), original.structural_hash());
        assert_eq!(back.inputs(), original.inputs());
        assert_eq!(back.outputs(), original.outputs());
    }

    #[test]
    fn roundtrip_with_renamed_identifiers() {
        let mut n = Netlist::new("bus_design");
        let clk = n.add_input("clk");
        let d0 = n.add_input("d[0]");
        let q0 = n.add_output("q[0]");
        n.add_dff("ff[0]", d0, clk, q0).unwrap();
        let text = to_edif(&n);
        assert!(text.contains("rename"), "bus names need rename forms");
        let back = from_edif(&text).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn hierarchical_flatten_expands_and_joins_names() {
        let text = r#"
(edif hier
  (edifVersion 2 0 0)
  (library PRIMS
    (cell INV (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port A (direction INPUT)) (port Y (direction OUTPUT))))))
  (library WORK
    (cell pair (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port din (direction INPUT)) (port dout (direction OUTPUT)))
        (contents
          (instance u0 (viewRef netlist (cellRef INV (libraryRef PRIMS))))
          (instance u1 (viewRef netlist (cellRef INV (libraryRef PRIMS))))
          (net din (joined (portRef din) (portRef A (instanceRef u0))))
          (net mid (joined (portRef Y (instanceRef u0)) (portRef A (instanceRef u1))))
          (net dout (joined (portRef dout) (portRef Y (instanceRef u1)))))))
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port x (direction INPUT)) (port z (direction OUTPUT)))
        (contents
          (instance stage (viewRef netlist (cellRef pair (libraryRef WORK))))
          (net x (joined (portRef x) (portRef din (instanceRef stage))))
          (net z (joined (portRef z) (portRef dout (instanceRef stage)))))))))
"#;
        let n = from_edif(text).unwrap();
        assert_eq!(n.name(), "top");
        assert_eq!(n.num_cells(), 2);
        // Hierarchical names join with `/`; the boundary-crossing nets keep
        // the parent's name.
        assert!(n.find_cell("stage/u0").is_some());
        assert!(n.find_cell("stage/u1").is_some());
        assert!(n.find_net("stage/mid").is_some());
        assert!(n.find_net("x").is_some());
        assert!(n.find_net("z").is_some());
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.outputs().len(), 1);
        n.validate().unwrap();
    }

    #[test]
    fn unknown_primitive_is_a_typed_error() {
        let text = r#"
(edif bad
  (library WORK
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
        (contents
          (instance g (viewRef netlist (cellRef MYSTERY9000 (libraryRef NOWHERE))))
          (net a (joined (portRef a) (portRef A (instanceRef g))))
          (net y (joined (portRef y) (portRef Y (instanceRef g)))))))))
"#;
        match from_edif(text) {
            Err(EdifError::UnknownPrimitive { cell, instance }) => {
                assert_eq!(cell, "MYSTERY9000");
                assert_eq!(instance, "g");
            }
            other => panic!("expected UnknownPrimitive, got {other:?}"),
        }
    }

    #[test]
    fn recursive_hierarchy_is_rejected() {
        let text = r#"
(edif loopy
  (library WORK
    (cell ouro (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT)))
        (contents
          (instance inner (viewRef netlist (cellRef ouro (libraryRef WORK))))
          (net a (joined (portRef a) (portRef a (instanceRef inner)))))))))
"#;
        match from_edif(text) {
            Err(EdifError::RecursiveHierarchy { cell }) => assert_eq!(cell, "ouro"),
            other => panic!("expected RecursiveHierarchy, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let e = from_edif("(edif broken").unwrap_err();
        match e {
            EdifError::Parse { pos, .. } => assert_eq!(pos.line, 1),
            other => panic!("expected Parse, got {other:?}"),
        }
        let e = from_edif("(verilog nope)").unwrap_err();
        assert!(matches!(e, EdifError::Parse { .. }), "{e}");
        let e =
            from_edif("(edif x (library L (cell c (view v (interface (port p))))))").unwrap_err();
        assert!(e.to_string().contains("direction"), "{e}");
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 50,000 nested lists would overflow the stack of a reader that
        // recursed without bound; run on a spawned thread's smaller stack.
        let text = "(".repeat(50_000) + &")".repeat(50_000);
        let result = std::thread::spawn(move || from_edif(&text))
            .join()
            .expect("the reader thread completes");
        match result {
            Err(EdifError::NestingTooDeep { pos, limit }) => {
                assert_eq!(limit, MAX_NESTING_DEPTH);
                assert_eq!((pos.line, pos.col), (1, MAX_NESTING_DEPTH + 1));
            }
            other => panic!("expected NestingTooDeep, got {other:?}"),
        }
        // Nesting right at the limit is read (and then rejected as an EDIF
        // document, not for its depth).
        let at_limit = "(".repeat(MAX_NESTING_DEPTH) + &")".repeat(MAX_NESTING_DEPTH);
        assert!(matches!(from_edif(&at_limit), Err(EdifError::Parse { .. })));
    }

    #[test]
    fn missing_pin_is_reported_with_the_instance_path() {
        let text = r#"
(edif bad
  (library WORK
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port c (direction INPUT)) (port q (direction OUTPUT)))
        (contents
          (instance r0 (viewRef netlist (cellRef DFF (libraryRef PRIMS))))
          (net c (joined (portRef c) (portRef D (instanceRef r0))))
          (net q (joined (portRef q) (portRef Q (instanceRef r0)))))))))
"#;
        match from_edif(text) {
            Err(EdifError::MissingPin { instance, pin }) => {
                assert_eq!(instance, "r0");
                assert_eq!(pin, "CK");
            }
            other => panic!("expected MissingPin, got {other:?}"),
        }
    }

    #[test]
    fn design_form_selects_the_top_cell() {
        // Two cells; the design form picks the *first*, not the last.
        let text = r#"
(edif picky
  (library WORK
    (cell chosen (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
        (contents
          (instance g (viewRef netlist (cellRef INV (libraryRef PRIMS))))
          (net a (joined (portRef a) (portRef A (instanceRef g))))
          (net y (joined (portRef y) (portRef Y (instanceRef g)))))))
    (cell other (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port b (direction INPUT))))))
  (design picky (cellRef chosen (libraryRef WORK))))
"#;
        let n = from_edif(text).unwrap();
        assert_eq!(n.name(), "chosen");
        assert_eq!(n.num_cells(), 1);
    }

    #[test]
    fn all_kinds_roundtrip() {
        let mut n = Netlist::new("kinds");
        let clk = n.add_input("clk");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let s = n.add_input("s");
        let t0 = n.add_net("t0");
        let t1 = n.add_net("t1");
        let m = n.add_net("m");
        let q = n.add_net("q");
        let l = n.add_net("l");
        let c = n.add_net("c");
        let y = n.add_output("y");
        n.add_const("k0", false, t0).unwrap();
        n.add_const("k1", true, t1).unwrap();
        n.add_gate("mx", CellKind::Mux2, &[s, a, b], m).unwrap();
        n.add_dff("r", m, clk, q).unwrap();
        n.add_latch("lt", q, clk, l, true).unwrap();
        n.add_c_element("ce", &[l, t1, t0], c).unwrap();
        n.add_gate("ao", CellKind::AndOrInv, &[a, b, c, s], y)
            .unwrap();
        let back = from_edif(&to_edif(&n)).unwrap();
        assert_eq!(back, n);
        assert_eq!(back.structural_hash(), n.structural_hash());
    }
}
