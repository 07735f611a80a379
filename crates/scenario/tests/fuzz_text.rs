//! Fuzzed text boundaries: the scenario parser and the command-line flag
//! parser are fed seeded random bytes, mutated checked-in scenarios and
//! broken command lines. Whatever they are given, they answer — an `Err`
//! for anything malformed — and never panic.

use scenario::cli::Flags;
use scenario::{Scenario, ScenarioError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// A seeded word stream (splitmix64): every case replays from its seed.
struct Gen(u64);

impl Gen {
    fn word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.word() % n.max(1) as u64) as usize
    }

    /// Up to `max` bytes, half of them drawn from the scenario grammar's
    /// own characters so the parser gets past its first check now and
    /// then, half arbitrary (invalid UTF-8 included).
    fn noise(&mut self, max: usize) -> Vec<u8> {
        const GRAMMAR: &[u8] = b"=#[]=,.:-_ \n\t\r0123456789abcdefgknrsuxyz";
        (0..self.below(max + 1))
            .map(|_| match self.below(2) {
                0 => GRAMMAR[self.below(GRAMMAR.len())],
                _ => self.word() as u8,
            })
            .collect()
    }

    fn text(&mut self, max: usize) -> String {
        String::from_utf8_lossy(&self.noise(max)).into_owned()
    }
}

/// `parse_str` on `text`, with a panic turned into a test failure that
/// names the case.
fn parse(text: &str, case: &str) -> Result<Scenario, ScenarioError> {
    catch_unwind(AssertUnwindSafe(|| Scenario::parse_str(text, "<fuzz>")))
        .unwrap_or_else(|_| panic!("{case}: parse_str panicked on {text:?}"))
}

/// An error must point into the text it came from.
fn check_error(e: &ScenarioError, text: &str, case: &str) {
    assert!(e.to_string().starts_with("<fuzz>:"), "{case}: {e}");
    if let Some(line) = e.line {
        assert!(line >= 1 && line <= text.lines().count(), "{case}: {e}");
    }
}

#[test]
fn random_bytes_are_an_error_with_a_place_never_a_panic() {
    for seed in 0..3_000u64 {
        let mut g = Gen(seed);
        let text = g.text(400);
        let case = format!("seed {seed}");
        let e = match parse(&text, &case) {
            Ok(s) => panic!("{case}: noise parsed as scenario `{}`: {text:?}", s.name),
            Err(e) => e,
        };
        check_error(&e, &text, &case);
    }
}

/// One edit of `text`: a byte flipped, a range cut, noise inserted, a line
/// repeated, two lines swapped, a value replaced, or a cut-off tail.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let at = g.below(bytes.len());
    match g.below(7) {
        0 if !bytes.is_empty() => bytes[at] = g.word() as u8,
        1 => {
            let end = (at + 1 + g.below(40)).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => {
            let noise = g.noise(24);
            bytes.splice(at..at, noise);
        }
        3 | 4 if !lines.is_empty() => {
            let (i, j) = (g.below(lines.len()), g.below(lines.len()));
            if g.below(2) == 0 {
                let copy = lines[i].clone();
                lines.insert(j, copy);
            } else {
                lines.swap(i, j);
            }
            return lines.join("\n");
        }
        5 if !lines.is_empty() => {
            let i = g.below(lines.len());
            if let Some((key, _)) = lines[i].split_once('=') {
                lines[i] = format!("{key}= {}", g.text(16));
            }
            return lines.join("\n");
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_checked_in_scenarios_never_panic() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "scenario"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "the checked-in scenarios are the corpus");
    let (mut parsed, mut refused) = (0, 0);
    for (k, path) in files.iter().enumerate() {
        let original = std::fs::read_to_string(path).unwrap();
        let name = path.file_name().unwrap().to_string_lossy();
        parse(&original, &name).unwrap_or_else(|e| panic!("{name} as checked in: {e}"));
        for seed in 0..80u64 {
            let mut g = Gen(seed << 8 | k as u64);
            let mut text = original.clone();
            for _ in 0..1 + g.below(3) {
                text = mutate(&mut g, &text);
            }
            let case = format!("{name}, seed {seed}");
            match parse(&text, &case) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    check_error(&e, &text, &case);
                    refused += 1;
                }
            }
        }
    }
    // Both outcomes occur: the edits are neither all harmless nor all fatal.
    assert!(
        parsed > 100 && refused > 100,
        "{parsed} parsed, {refused} refused"
    );
}

/// Every flag any verb takes, and whether it reads a value.
const FLAGS: &[(&str, bool)] = &[
    ("--threads", true),
    ("--out", true),
    ("--scenarios", true),
    ("--rounds", true),
    ("--set", true),
    ("--quiet", false),
    ("--no-write", false),
    ("--full", false),
];

/// A well-formed value for `flag`.
fn good_value(g: &mut Gen, flag: &str) -> String {
    match flag {
        "--threads" => (1 + g.below(64)).to_string(),
        "--rounds" => g.word().to_string(),
        "--set" => format!("{}={}", g.text(8).replace('=', ""), g.text(8)),
        _ => g.text(12),
    }
}

/// A positional argument: anything not spelled like a flag.
fn positional(g: &mut Gen) -> String {
    let word = g.text(16);
    if word.starts_with("--") {
        format!("x{word}")
    } else {
        word
    }
}

/// A random command line for a verb allowing `allowed`, as units — a
/// positional, a bare flag, or a flag and its value — and the positionals
/// in order.
fn command_line(g: &mut Gen, allowed: &[(&str, bool)]) -> (Vec<Vec<String>>, Vec<String>) {
    let (mut units, mut args) = (Vec::new(), Vec::new());
    for _ in 0..g.below(8) {
        if allowed.is_empty() || g.below(3) == 0 {
            let arg = positional(g);
            args.push(arg.clone());
            units.push(vec![arg]);
        } else {
            let (flag, takes) = allowed[g.below(allowed.len())];
            let mut unit = vec![flag.to_string()];
            unit.extend(takes.then(|| good_value(g, flag)));
            units.push(unit);
        }
    }
    (units, args)
}

/// One defect, as a unit: an unknown flag, or an allowed value flag with
/// a bad value or none.
fn defect(g: &mut Gen, allowed: &[(&str, bool)]) -> Vec<String> {
    let value_flags: Vec<&str> = allowed.iter().filter(|f| f.1).map(|f| f.0).collect();
    if value_flags.is_empty() || g.below(2) == 0 {
        let noise = format!("x{}", g.text(10));
        let name = ["wat", "thread", "set=1", "", &noise][g.below(5)];
        return vec![format!("--{name}")];
    }
    let flag = value_flags[g.below(value_flags.len())];
    let bad = match flag {
        "--threads" => ["0", "-1", "x", "", "1e3"][g.below(5)].to_string(),
        "--rounds" => ["-1", "1.5", "x", "", "99999999999999999999"][g.below(5)].to_string(),
        "--set" => g.text(12).replace('=', ""),
        _ => return vec![flag.to_string()],
    };
    vec![flag.to_string(), bad]
}

#[test]
fn command_lines_parse_or_fail_as_specified_never_panic() {
    for seed in 0..3_000u64 {
        let mut g = Gen(seed);
        let allowed: Vec<(&str, bool)> =
            FLAGS.iter().copied().filter(|_| g.below(2) == 0).collect();
        let allow = allowed.iter().map(|f| f.0).collect::<Vec<_>>().join(" ");
        let (mut units, args) = command_line(&mut g, &allowed);
        let parse = |argv: &[String]| {
            catch_unwind(|| Flags::parse(argv, &allow))
                .unwrap_or_else(|_| panic!("seed {seed}: Flags::parse panicked on {argv:?}"))
        };

        let argv: Vec<String> = units.concat();
        let flags = parse(&argv).unwrap_or_else(|e| panic!("seed {seed}: {argv:?}: {e}"));
        assert_eq!(flags.args, args, "seed {seed}: positionals in order");

        // One defect, placed between whole units, must make the line an
        // error; a value flag missing its value goes last.
        let defect = defect(&mut g, &allowed);
        let last = defect.len() == 1 && allowed.iter().any(|f| f.1 && f.0 == defect[0]);
        let at = if last {
            units.len()
        } else {
            g.below(units.len() + 1)
        };
        units.insert(at, defect);
        let argv: Vec<String> = units.concat();
        assert!(parse(&argv).is_err(), "seed {seed}: {argv:?} parsed");

        // Arbitrary tokens: any answer, but an answer.
        let noise: Vec<String> = (0..g.below(8)).map(|_| g.text(12)).collect();
        parse(&noise).ok();
    }
}
