//! One column list per report: its stdout table and its JSON `cells`
//! are two views of the same cells, both rendered from that list.
//!
//! A [`Col`] names a cell field once, with an optional JSON key, an
//! optional stdout header and one getter. A column shown in both views
//! is one entry; one shown only on stdout (or only in JSON) leaves the
//! other name out. Where the two views order the same quantity
//! differently, the report lists it twice, once per view, so that
//! neither output moves.

use es2_metrics::json::Json;
use es2_metrics::Table;

/// One value a column's getter reads off a cell.
pub(crate) enum Val {
    Int(u64),
    /// Six decimals in JSON; the column's [`Col::dec`] on stdout.
    Real(f64),
    Text(String),
    /// A list of counts: joined by `,` on stdout, an array in JSON.
    Ints(Vec<u64>),
    /// A liveness verdict: `PASS`/`FAIL` on stdout, `pass`/`fail` in JSON.
    Verdict(bool),
    /// A nested JSON member with its own builder; JSON only.
    Json(Json),
}

/// The stdout word of a liveness verdict.
pub(crate) fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

impl Val {
    fn stdout(self, decimals: usize) -> String {
        match self {
            Val::Int(n) => n.to_string(),
            Val::Real(x) => format!("{x:.decimals$}"),
            Val::Text(s) => s,
            Val::Ints(v) => v.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
            Val::Verdict(ok) => verdict(ok).to_string(),
            Val::Json(j) => j.to_string(),
        }
    }

    pub(crate) fn json(self) -> Json {
        match self {
            Val::Int(n) => n.into(),
            Val::Real(x) => x.into(),
            Val::Text(s) => s.into(),
            Val::Ints(v) => v.into_iter().collect(),
            Val::Verdict(ok) => verdict(ok).to_ascii_lowercase().into(),
            Val::Json(j) => j,
        }
    }
}

macro_rules! val_from {
    ($($t:ty => $v:ident $(as $as:ty)?),* $(,)?) => {$(
        impl From<$t> for Val {
            fn from(x: $t) -> Val {
                Val::$v((x $(as $as)?).into())
            }
        }
    )*};
}

val_from!(
    u32 => Int as u64, u64 => Int, usize => Int as u64,
    f64 => Real, &str => Text, String => Text,
);

/// One column of a report's cells of type `C`.
pub(crate) struct Col<C> {
    /// Member key in the JSON cell object; `None` keeps it out of JSON.
    pub key: Option<&'static str>,
    /// Stdout header; `None` keeps it out of the table.
    pub head: Option<&'static str>,
    /// Decimals of a [`Val::Real`] on stdout.
    decimals: usize,
    get: fn(&C) -> Val,
}

impl<C> Col<C> {
    const fn new(
        key: Option<&'static str>,
        head: Option<&'static str>,
        get: fn(&C) -> Val,
    ) -> Self {
        Col {
            key,
            head,
            decimals: 0,
            get,
        }
    }

    /// A column both views show.
    pub(crate) const fn both(key: &'static str, head: &'static str, get: fn(&C) -> Val) -> Self {
        Self::new(Some(key), Some(head), get)
    }

    /// A column only the JSON shows.
    pub(crate) const fn json(key: &'static str, get: fn(&C) -> Val) -> Self {
        Self::new(Some(key), None, get)
    }

    /// A column only the stdout table shows.
    pub(crate) const fn stdout(head: &'static str, get: fn(&C) -> Val) -> Self {
        Self::new(None, Some(head), get)
    }

    /// Print a real with `decimals` digits after the point on stdout.
    pub(crate) const fn dec(self, decimals: usize) -> Self {
        Col { decimals, ..self }
    }
}

/// The stdout table of `cells` under `title`, one row per cell, of the
/// columns with a header, followed by a blank line.
pub(crate) fn table<C>(title: String, cols: &[Col<C>], cells: &[C]) -> String {
    let shown: Vec<&Col<C>> = cols.iter().filter(|c| c.head.is_some()).collect();
    let heads: Vec<&str> = shown.iter().filter_map(|c| c.head).collect();
    let mut t = Table::new(title, &heads);
    for cell in cells {
        let row: Vec<String> = shown
            .iter()
            .map(|c| (c.get)(cell).stdout(c.decimals))
            .collect();
        t.row(&row);
    }
    let mut out = t.render();
    out.push('\n');
    out
}

/// The JSON array of `cells`, one object per cell, of the columns with
/// a key.
pub(crate) fn json<C>(cols: &[Col<C>], cells: &[C]) -> Json {
    cells
        .iter()
        .map(|cell| {
            Json::Obj(
                cols.iter()
                    .filter_map(|c| Some((c.key?.to_string(), (c.get)(cell).json())))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Cell {
        n: u64,
        x: f64,
        ok: bool,
    }

    type Column = Col<Cell>;

    const COLS: &[Column] = &[
        Column::json("n_json", |c| c.n.into()),
        Column::both("x", "x head", |c| c.x.into()).dec(2),
        Column::stdout("n head", |c| c.n.into()),
        Column::both("liveness", "live", |c| Val::Verdict(c.ok)),
        Column::both("list", "list", |c| Val::Ints(vec![c.n, 2 * c.n])),
    ];

    #[test]
    fn each_view_renders_its_columns_in_list_order() {
        let cells = [
            Cell {
                n: 3,
                x: 1.0 / 3.0,
                ok: true,
            },
            Cell {
                n: 40,
                x: 2.5,
                ok: false,
            },
        ];
        assert_eq!(
            table("t".into(), COLS, &cells),
            "== t ==\n\
             x head  n head  live  list \n\
             ---------------------------\n\
             0.33    3       PASS  3,6  \n\
             2.50    40      FAIL  40,80\n\n"
        );
        let objs = json(COLS, &cells);
        let keys: Vec<&str> = match &objs.items()[0] {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other}"),
        };
        assert_eq!(keys, ["n_json", "x", "liveness", "list"]);
        let cell = |i: usize, key| objs.items()[i].get(key).unwrap().to_string();
        assert_eq!(cell(0, "x"), "0.333333");
        assert_eq!(cell(0, "liveness"), "\"pass\"");
        assert_eq!(cell(1, "liveness"), "\"fail\"");
        assert_eq!(cell(1, "list"), "[40, 80]");
    }

    /// Panics naming `report` if two of its columns share a JSON key or
    /// a stdout header.
    fn assert_unique<C>(report: &str, cols: &[Col<C>]) {
        let keys = cols.iter().filter_map(|c| c.key);
        let heads = cols.iter().filter_map(|c| c.head);
        for (view, names) in [
            ("key", keys.collect::<Vec<_>>()),
            ("header", heads.collect()),
        ] {
            let mut seen = std::collections::HashSet::new();
            for name in names {
                assert!(seen.insert(name), "{report}: {view} `{name}` twice");
            }
        }
    }

    #[test]
    fn no_report_names_a_key_or_a_header_twice() {
        assert_unique("test", COLS);
        assert_unique("mq", crate::mq::COLUMNS);
        assert_unique("hostile", crate::hostile::COLUMNS);
        assert_unique("churn", crate::churn::COLUMNS);
        assert_unique("migrate", crate::migrate::COLUMNS);
        assert_unique("scale", crate::scale::COLUMNS);
        assert_unique("telemetry", crate::telemetry::COLUMNS);
    }
}
