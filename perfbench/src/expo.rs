//! A strict parser for the server's `GET /metrics` exposition.
//!
//! It accepts exactly today's line shapes — `patchdb_counter{name=…}`,
//! `patchdb_gauge{name=…}`, the five `patchdb_hist_*{name=…}` lines,
//! the `patchdb_window_*{name=…,window_s=…}` lines, uptime and build
//! info — and rejects anything else, so a change of exposition format
//! fails the benchmark instead of silently reading zeros. Looking up a
//! series the scrape lacks is an error too.

use std::collections::BTreeMap;

/// The five cumulative lines the server prints per histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hist {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p99: u64,
}

/// One parsed scrape.
#[derive(Debug, Default)]
pub struct Scrape {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Hist>,
}

const HIST_FIELDS: [&str; 5] = ["count", "sum", "max", "p50", "p99"];

impl Scrape {
    /// Parses a whole exposition.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut scrape = Scrape::default();
        let mut hist_fields: BTreeMap<String, [Option<u64>; 5]> = BTreeMap::new();
        for (no, line) in text.lines().enumerate() {
            let err = |why: &str| format!("/metrics line {}: {why}: {line:?}", no + 1);
            if line.is_empty() || line.starts_with("# ") {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').ok_or_else(|| err("no value"))?;
            if let Some(rest) = series.strip_prefix("patchdb_build_info{") {
                if !rest.ends_with('}') {
                    return Err(err("malformed build info"));
                }
                continue;
            }
            if series == "patchdb_uptime_seconds" {
                value.parse::<u64>().map_err(|_| err("bad uptime"))?;
                continue;
            }
            let (family, labels) = series.split_once('{').ok_or_else(|| err("no labels"))?;
            let labels = labels
                .strip_suffix('}')
                .ok_or_else(|| err("unterminated labels"))?;
            if let Some(kind) = family.strip_prefix("patchdb_window_") {
                // Windowed quantiles are validated but not used: the
                // benchmark reads cumulative histograms and takes deltas.
                let (name, window) = labels
                    .split_once(",window_s=")
                    .ok_or_else(|| err("window labels"))?;
                name_label(name).ok_or_else(|| err("window name label"))?;
                window
                    .trim_matches('"')
                    .parse::<u64>()
                    .map_err(|_| err("window_s"))?;
                if !["count", "rate", "p50", "p90", "p99"].contains(&kind) {
                    return Err(err("unknown window field"));
                }
                value.parse::<f64>().map_err(|_| err("bad window value"))?;
                continue;
            }
            let name = name_label(labels).ok_or_else(|| err("expected a single name label"))?;
            match family {
                "patchdb_counter" => {
                    let v = value.parse().map_err(|_| err("bad counter value"))?;
                    if scrape.counters.insert(name.to_owned(), v).is_some() {
                        return Err(err("duplicate counter"));
                    }
                }
                "patchdb_gauge" => {
                    let v = value.parse().map_err(|_| err("bad gauge value"))?;
                    if scrape.gauges.insert(name.to_owned(), v).is_some() {
                        return Err(err("duplicate gauge"));
                    }
                }
                _ => {
                    let field = family
                        .strip_prefix("patchdb_hist_")
                        .and_then(|f| HIST_FIELDS.iter().position(|&k| k == f))
                        .ok_or_else(|| err("unknown metric family"))?;
                    let v = value.parse().map_err(|_| err("bad histogram value"))?;
                    let slot = &mut hist_fields.entry(name.to_owned()).or_default()[field];
                    if slot.replace(v).is_some() {
                        return Err(err("duplicate histogram line"));
                    }
                }
            }
        }
        for (name, fields) in hist_fields {
            let [Some(count), Some(sum), Some(max), Some(p50), Some(p99)] = fields else {
                return Err(format!(
                    "/metrics histogram {name} lacks one of {HIST_FIELDS:?}"
                ));
            };
            scrape.hists.insert(
                name,
                Hist {
                    count,
                    sum,
                    max,
                    p50,
                    p99,
                },
            );
        }
        Ok(scrape)
    }

    pub fn counter(&self, name: &str) -> Result<u64, String> {
        self.counters
            .get(name)
            .copied()
            .ok_or_else(|| missing("counter", name))
    }

    pub fn hist(&self, name: &str) -> Result<Hist, String> {
        self.hists
            .get(name)
            .copied()
            .ok_or_else(|| missing("histogram", name))
    }
}

fn missing(kind: &str, name: &str) -> String {
    format!("/metrics has no {kind} named {name:?}")
}

/// `name="x"` → `x`; anything else (extra labels, bad quoting) → `None`.
fn name_label(labels: &str) -> Option<&str> {
    let name = labels.strip_prefix("name=\"")?.strip_suffix('"')?;
    (!name.is_empty() && !name.contains('"')).then_some(name)
}

/// Change of one counter between two scrapes; missing in either is an
/// error, and so is a counter that went backwards.
pub fn counter_delta(before: &Scrape, after: &Scrape, name: &str) -> Result<u64, String> {
    let (b, a) = (before.counter(name)?, after.counter(name)?);
    a.checked_sub(b)
        .ok_or_else(|| format!("counter {name} went backwards: {b} -> {a}"))
}

/// Count and sum of the observations one histogram gained between two
/// scrapes.
pub fn hist_delta(before: &Scrape, after: &Scrape, name: &str) -> Result<(u64, u64), String> {
    let (b, a) = (before.hist(name)?, after.hist(name)?);
    match (a.count.checked_sub(b.count), a.sum.checked_sub(b.sum)) {
        (Some(count), Some(sum)) => Ok((count, sum)),
        _ => Err(format!("histogram {name} went backwards")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `/metrics` body captured from `patchdb serve --snapshot` after
    /// one request to each of `/healthz`, `/v1/identify`,
    /// `/v1/classify` and `/v1/stats`.
    const SAMPLE: &str = include_str!("testdata/metrics.txt");

    #[test]
    fn parses_the_captured_exposition() {
        let s = Scrape::parse(SAMPLE).unwrap();
        assert_eq!(s.counter("serve.accepted").unwrap(), 5);
        assert_eq!(s.counter("serve.identify.requests").unwrap(), 1);
        let h = s.hist("serve.stage.queue_ns").unwrap();
        assert_eq!((h.count, h.p50, h.p99), (4, 13653, 21943));
        assert_eq!(s.hist("serve.loop.work_ns").unwrap().sum, 407000);
        assert_eq!(s.gauges.get("serve.open_conns"), Some(&1));
    }

    #[test]
    fn a_missing_series_is_an_error_not_a_zero() {
        let s = Scrape::parse(SAMPLE).unwrap();
        assert!(s.counter("serve.identify.cache_hits").is_err());
        assert!(s.hist("serve.stage.nope_ns").is_err());
        assert!(counter_delta(&s, &s, "serve.rejected_503").is_err());
        assert_eq!(counter_delta(&s, &s, "serve.accepted").unwrap(), 0);
    }

    #[test]
    fn rejects_other_exposition_formats() {
        let typed = "# TYPE serve_accepted counter\nserve_accepted 5\n";
        assert!(Scrape::parse(typed).is_err());
        let extra_label = SAMPLE.replace(
            "patchdb_counter{name=\"serve.accepted\"}",
            "patchdb_counter{name=\"serve.accepted\",shard=\"0\"}",
        );
        assert!(Scrape::parse(&extra_label).is_err());
        let no_p99 = SAMPLE
            .lines()
            .filter(|l| !l.starts_with("patchdb_hist_p99{name=\"serve.stage.queue_ns\"}"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(Scrape::parse(&no_p99).is_err());
    }
}
