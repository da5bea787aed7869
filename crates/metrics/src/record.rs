//! The one JSON writer behind every `BENCH_*.json` record.
//!
//! A [`Record`] is an ordered list of fields, built one call per field;
//! it owns the quoting, the indentation and the separators, so a record
//! type only lists its fields. The workspace is offline and vendors no
//! serde, and the records are flat, so this is all the JSON it needs.

use ft_costs::OperationCost;
use std::fmt::Display;

/// An ordered JSON object: field names with their values already encoded.
#[derive(Clone, Debug, Default)]
pub struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    fn field(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// A number or boolean, written as it displays.
    pub fn num(self, key: &str, value: impl Display) -> Self {
        self.field(key, value.to_string())
    }

    /// A float with exactly `digits` decimals.
    pub fn fixed(self, key: &str, value: f64, digits: usize) -> Self {
        self.field(key, format!("{value:.digits$}"))
    }

    /// A string, quoted.
    pub fn str(self, key: &str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.field(key, format!("\"{escaped}\""))
    }

    /// The six [`OperationCost`] counters, keyed `<prefix>_<counter>`.
    pub fn cost(self, prefix: &str, c: &OperationCost) -> Self {
        [
            ("messages_sent", c.messages_sent),
            ("messages_delivered", c.messages_delivered),
            ("node_visits", c.node_visits),
            ("edge_scans", c.edge_scans),
            ("heap_bytes", c.heap_bytes),
            ("seeks", c.seeks),
        ]
        .into_iter()
        .fold(self, |r, (counter, v)| {
            r.num(&format!("{prefix}_{counter}"), v)
        })
    }

    /// An array of records, one [`inline`](Self::inline) object per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Record>) -> Self {
        let lines: Vec<String> = rows
            .into_iter()
            .map(|r| format!("\n    {}", r.inline()))
            .collect();
        self.field(key, format!("[{}\n  ]", lines.join(",")))
    }

    /// The record as a document: one field per line, newline-terminated.
    pub fn render(&self) -> String {
        let lines: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\n  \"{k}\": {v}"))
            .collect();
        format!("{{{}\n}}\n", lines.join(","))
    }

    /// The record on one line, as an array element.
    pub fn inline(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{ {} }}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::new()
            .str("bench", "demo")
            .num("n", 3)
            .num("ok", true)
            .fixed("ratio", 2.0 / 3.0, 4)
    }

    #[test]
    fn render_puts_one_field_per_line() {
        assert_eq!(
            sample().render(),
            "{\n  \"bench\": \"demo\",\n  \"n\": 3,\n  \"ok\": true,\n  \"ratio\": 0.6667\n}\n"
        );
    }

    #[test]
    fn inline_puts_the_record_on_one_line() {
        assert_eq!(
            sample().inline(),
            "{ \"bench\": \"demo\", \"n\": 3, \"ok\": true, \"ratio\": 0.6667 }"
        );
        assert_eq!(
            Record::new().str("q", "a\"b\\c").inline(),
            r#"{ "q": "a\"b\\c" }"#
        );
    }

    /// The `cells` layout of `BENCH_faults.json`.
    #[test]
    fn rows_write_one_inline_object_per_line() {
        let row = |m: &str| Record::new().str("model", m).num("lost", 0);
        let json = Record::new()
            .num("seed", 42)
            .rows("cells", [row("none"), row("loss")])
            .render();
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"seed\": 42,\n",
                "  \"cells\": [\n",
                "    { \"model\": \"none\", \"lost\": 0 },\n",
                "    { \"model\": \"loss\", \"lost\": 0 }\n",
                "  ]\n",
                "}\n"
            )
        );
        assert_eq!(
            Record::new().rows("cells", []).render(),
            "{\n  \"cells\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn cost_writes_the_six_counters_under_a_prefix() {
        let c = OperationCost {
            messages_sent: 1,
            messages_delivered: 2,
            node_visits: 3,
            edge_scans: 4,
            heap_bytes: 5,
            seeks: 6,
        };
        assert_eq!(
            Record::new().cost("tree", &c).inline(),
            concat!(
                "{ \"tree_messages_sent\": 1, \"tree_messages_delivered\": 2, ",
                "\"tree_node_visits\": 3, \"tree_edge_scans\": 4, ",
                "\"tree_heap_bytes\": 5, \"tree_seeks\": 6 }"
            )
        );
    }
}
