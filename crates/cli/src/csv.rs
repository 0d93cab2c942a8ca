//! Minimal trajectory CSV codec (no external CSV dependency — the format
//! is a fixed-arity float table).

use crate::CliError;
use dpod_data::Trajectory;

/// Serializes trajectories as CSV lines (`x0,y0,x1,y1,…`).
///
/// Coordinates are written with 6 decimals; values within rounding
/// distance of 1.0 are clamped to `0.999999` so the output always
/// re-parses under the `[0, 1)` contract.
pub fn to_csv(trips: &[Trajectory]) -> String {
    let mut out = String::new();
    for t in trips {
        let mut first = true;
        for [x, y] in &t.points {
            if !first {
                out.push(',');
            }
            let (x, y) = (x.min(0.999_999), y.min(0.999_999));
            out.push_str(&format!("{x:.6},{y:.6}"));
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Parses trajectory CSV.
///
/// Empty lines and lines starting with `#` are skipped. Every data line
/// must hold the same even number (≥ 4) of finite unit-square floats.
/// Fields are read in place, with no per-line buffer: the commas are
/// counted first, so an arity error is reported before any field of the
/// line is parsed, then each pair is parsed and range-checked in order
/// (see `Fields` for the decimal fast path).
///
/// # Errors
/// [`CliError`] naming the first offending line.
pub fn from_csv(text: &str) -> Result<Vec<Trajectory>, CliError> {
    let mut trips = Vec::new();
    let mut arity: Option<usize> = None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = line.bytes().filter(|&b| b == b',').count() + 1;
        if !n.is_multiple_of(2) || n < 4 {
            return Err(CliError(format!(
                "line {}: expected an even number (>= 4) of coordinates, got {n}",
                lineno + 1
            )));
        }
        match arity {
            None => arity = Some(n),
            Some(a) if a != n => {
                return Err(CliError(format!(
                    "line {}: {n} coordinates but earlier lines had {a}",
                    lineno + 1
                )));
            }
            Some(_) => {}
        }
        let mut points = Vec::with_capacity(n / 2);
        let mut fields = Fields { line, at: 0 };
        while let (Some((xs, x)), Some((ys, y))) = (fields.next(), fields.next()) {
            let bad = |field: &str| {
                CliError(format!("line {}: bad float '{}'", lineno + 1, field.trim()))
            };
            let x = x.ok_or_else(|| bad(xs))?;
            let y = y.ok_or_else(|| bad(ys))?;
            for (v, field) in [(x, xs), (y, ys)] {
                if !v.is_finite() || !(0.0..1.0).contains(&v) {
                    return Err(CliError(format!(
                        "line {}: coordinate '{}' outside [0, 1)",
                        lineno + 1,
                        field.trim()
                    )));
                }
            }
            points.push([x, y]);
        }
        trips.push(Trajectory { points });
    }
    Ok(trips)
}

/// Powers of ten that are exact in an `f64`, up to the fast path's 15
/// digits.
const EXACT_POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The comma-separated fields of a line, each with its value as
/// `str::parse::<f64>` gives it for the trimmed field, bit for bit: the
/// same fields as `line.split(',')`, found and parsed in one scan.
///
/// The fast path takes a field of ASCII digits with at most one `.` and
/// at most 15 digits, `m` digits in all with `k` after the point, as
/// `m as f64 / 10^k`; such a field has nothing to trim. Both operands are
/// exact (`m < 10^15 < 2^53`, and `10^k` is exact up to `10^22`), so the
/// one correctly rounded IEEE division gives the correctly rounded value
/// of the decimal, which is what `str::parse` returns (Clinger's fast
/// path). Any other field — padded, signed, with an exponent or more
/// digits, `NaN`, `inf`, no digit at all — is trimmed and handed to
/// `str::parse`.
struct Fields<'a> {
    line: &'a str,
    /// Byte offset of the next field; past the end once the last field
    /// is out.
    at: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = (&'a str, Option<f64>);

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.line.as_bytes();
        let start = self.at;
        if start > bytes.len() {
            return None;
        }
        let (mut mantissa, mut digits, mut point, mut fast) = (0u64, 0usize, None, true);
        let mut end = start;
        while let Some(&b) = bytes.get(end) {
            match b {
                b',' => break,
                b'0'..=b'9' if digits < 15 => {
                    mantissa = mantissa * 10 + u64::from(b - b'0');
                    digits += 1;
                }
                b'.' if point.is_none() => point = Some(digits),
                _ => fast = false,
            }
            end += 1;
        }
        self.at = end + 1;
        let field = &self.line[start..end];
        let value = if fast && digits > 0 {
            Some(mantissa as f64 / EXACT_POW10[digits - point.unwrap_or(digits)])
        } else {
            field.trim().parse().ok()
        };
        Some((field, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parser [`from_csv`] replaced, kept as its reference: a
    /// `Vec<&str>` of fields per line and `str::parse` on each.
    fn from_csv_reference(text: &str) -> Result<Vec<Trajectory>, CliError> {
        let mut trips = Vec::new();
        let mut arity: Option<usize> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if !fields.len().is_multiple_of(2) || fields.len() < 4 {
                return Err(CliError(format!(
                    "line {}: expected an even number (>= 4) of coordinates, got {}",
                    lineno + 1,
                    fields.len()
                )));
            }
            match arity {
                None => arity = Some(fields.len()),
                Some(a) if a != fields.len() => {
                    return Err(CliError(format!(
                        "line {}: {} coordinates but earlier lines had {a}",
                        lineno + 1,
                        fields.len()
                    )));
                }
                Some(_) => {}
            }
            let mut points = Vec::with_capacity(fields.len() / 2);
            for pair in fields.chunks_exact(2) {
                let x: f64 = pair[0].parse().map_err(|_| {
                    CliError(format!("line {}: bad float '{}'", lineno + 1, pair[0]))
                })?;
                let y: f64 = pair[1].parse().map_err(|_| {
                    CliError(format!("line {}: bad float '{}'", lineno + 1, pair[1]))
                })?;
                for (v, label) in [(x, pair[0]), (y, pair[1])] {
                    if !v.is_finite() || !(0.0..1.0).contains(&v) {
                        return Err(CliError(format!(
                            "line {}: coordinate '{label}' outside [0, 1)",
                            lineno + 1
                        )));
                    }
                }
                points.push([x, y]);
            }
            trips.push(Trajectory { points });
        }
        Ok(trips)
    }

    /// A lone field's value, as the line scanner reads it.
    fn parse_field(field: &str) -> Option<f64> {
        Fields { line: field, at: 0 }.next().unwrap().1
    }

    /// Both parsers' outcome in comparable form: every coordinate's bits,
    /// or the error string.
    fn outcome(parsed: Result<Vec<Trajectory>, CliError>) -> Result<Vec<Vec<[u64; 2]>>, String> {
        parsed
            .map(|trips| {
                trips
                    .iter()
                    .map(|t| {
                        t.points
                            .iter()
                            .map(|[x, y]| [x.to_bits(), y.to_bits()])
                            .collect()
                    })
                    .collect()
            })
            .map_err(|e| e.0)
    }

    /// SplitMix64: a seeded generator for the random documents.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }
    }

    /// Fields the fast path must hand to `str::parse`, or must match it
    /// on.
    const ADVERSARIAL: &[&str] = &[
        "1e-3",
        "+0.5",
        ".5",
        "5.",
        " 0.25 ",
        "0.1234567890123456",
        "0.12345678901234567",
        "0.123456789012345678",
        "0.1234567890123456789",
        "0.12345678901234567890",
        "1234567890123456",
        "0.999999999999999",
        "0.9999999999999999",
        "0.99999999999999999999",
        "-0.0",
        "0.0",
        "0",
        "NaN",
        "inf",
        "-inf",
        "1.0",
        "1",
        "",
        ".",
        "..5",
        "0.5.",
        "0,5",
        "0x1",
        "0.5e0",
        "0.000000000000001",
        "00000000000000.5",
        "1e400",
        "٣",
    ];

    /// A random decimal of 1–20 digits with the point anywhere, or none.
    fn random_decimal(rng: &mut Mix) -> String {
        let digits = 1 + rng.below(20);
        let point = rng.below(digits as u64 + 2);
        let mut out = String::new();
        for i in 0..digits {
            if i == point {
                out.push('.');
            }
            // Leading zeros often, so most values land in [0, 1).
            let d = if i == 0 && rng.below(4) > 0 {
                0
            } else {
                rng.below(10)
            };
            out.push(char::from(b'0' + d as u8));
        }
        if point == digits {
            out.push('.');
        }
        out
    }

    fn random_field(rng: &mut Mix) -> String {
        let field = match rng.below(8) {
            0 => ADVERSARIAL[rng.below(ADVERSARIAL.len() as u64)].to_string(),
            _ => random_decimal(rng),
        };
        match rng.below(10) {
            0 => format!(" {field}"),
            1 => format!("{field}\t "),
            _ => field,
        }
    }

    fn random_document(rng: &mut Mix) -> String {
        let arity = 2 * (2 + rng.below(3));
        let mut doc = String::new();
        for _ in 0..1 + rng.below(6) {
            match rng.below(12) {
                0 => doc.push_str("# a comment, with commas"),
                1 => {}
                2 => doc.push_str("   "),
                kind => {
                    // Mostly the document's arity, sometimes another one.
                    let n = if kind == 3 { 1 + rng.below(7) } else { arity };
                    let fields: Vec<String> = (0..n).map(|_| random_field(rng)).collect();
                    doc.push_str(&fields.join(","));
                    if rng.below(10) == 0 {
                        doc.push(',');
                    }
                }
            }
            doc.push_str(if rng.below(4) == 0 { "\r\n" } else { "\n" });
        }
        doc
    }

    #[test]
    fn matches_the_reference_on_random_documents() {
        let mut rng = Mix(0x5eed);
        let (mut parsed, mut refused) = (0, 0);
        for _ in 0..20_000 {
            let doc = random_document(&mut rng);
            let want = outcome(from_csv_reference(&doc));
            match &want {
                Ok(_) => parsed += 1,
                Err(_) => refused += 1,
            }
            assert_eq!(outcome(from_csv(&doc)), want, "{doc:?}");
        }
        // Both outcomes must come up often, or the test pins less than
        // it claims.
        assert!(parsed > 1_000 && refused > 1_000, "{parsed} / {refused}");
    }

    #[test]
    fn matches_the_reference_on_every_adversarial_field() {
        let good = "0.25";
        for &field in ADVERSARIAL {
            for at in 0..4 {
                let mut fields = [good; 4];
                fields[at] = field;
                for end in ["\n", "\r\n", ",\n", ""] {
                    let doc = format!("# header\n{}{end}0.5,0.5,0.5,0.5\n", fields.join(","));
                    assert_eq!(
                        outcome(from_csv(&doc)),
                        outcome(from_csv_reference(&doc)),
                        "{doc:?}"
                    );
                }
            }
            // The field parser alone, against `str::parse` on the
            // trimmed field, bit for bit.
            if field.contains(',') {
                continue;
            }
            assert_eq!(
                parse_field(field).map(f64::to_bits),
                field.trim().parse::<f64>().ok().map(f64::to_bits),
                "{field:?}"
            );
            // And the fields of a line are `split(',')`'s.
            let line = format!("{field},{field},,{field}");
            let got: Vec<&str> = Fields { line: &line, at: 0 }.map(|(f, _)| f).collect();
            assert_eq!(got, line.split(',').collect::<Vec<_>>(), "{line:?}");
        }
    }

    #[test]
    fn fast_path_matches_parse_on_random_decimals() {
        let mut rng = Mix(7);
        for _ in 0..200_000 {
            let field = random_decimal(&mut rng);
            assert_eq!(
                parse_field(&field).map(f64::to_bits),
                field.parse::<f64>().ok().map(f64::to_bits),
                "{field}"
            );
        }
    }

    #[test]
    fn round_trip() {
        let trips = vec![
            Trajectory {
                points: vec![[0.1, 0.2], [0.5, 0.5], [0.9, 0.8]],
            },
            Trajectory {
                points: vec![[0.0, 0.0], [0.3, 0.3], [0.999999, 0.5]],
            },
        ];
        let text = to_csv(&trips);
        let parsed = from_csv(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        for (a, b) in trips.iter().zip(&parsed) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                assert!((pa[0] - pb[0]).abs() < 1e-5);
                assert!((pa[1] - pb[1]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n0.1,0.1,0.2,0.2\n";
        assert_eq!(from_csv(text).unwrap().len(), 1);
    }

    #[test]
    fn rejects_odd_fields() {
        let err = from_csv("0.1,0.2,0.3\n").unwrap_err();
        assert!(err.0.contains("even number"), "{err}");
    }

    #[test]
    fn rejects_mixed_arity() {
        let err = from_csv("0.1,0.1,0.2,0.2\n0.1,0.1,0.2,0.2,0.3,0.3\n").unwrap_err();
        assert!(err.0.contains("earlier lines"), "{err}");
    }

    #[test]
    fn rejects_bad_floats_and_range() {
        assert!(from_csv("a,0.2,0.3,0.4\n").is_err());
        assert!(from_csv("1.5,0.2,0.3,0.4\n").is_err());
        assert!(from_csv("-0.1,0.2,0.3,0.4\n").is_err());
        assert!(from_csv("0.1,NaN,0.3,0.4\n").is_err());
    }
}
