//! The allocation invariant of the decoders of untrusted bytes: a length
//! decoded from input reaches `with_capacity` or `reserve` only through
//! `memtrace::wire::Reader::count`, which caps it and bounds it by the
//! bytes that remain.
//!
//! The check is textual. In the scanned files, outside their test
//! modules, each `with_capacity(..)`/`reserve(..)` argument must be a
//! plain name or field path whose last segment is bound somewhere in the
//! same file by `let <name> = <reader>.count("..", ..)`. Encoders — which
//! size buffers from data already in memory — are exempt by name.

const DECODERS: [&str; 7] = [
    "crates/obs/src/json.rs",
    "crates/memtrace/src/jsonio.rs",
    "crates/memtrace/src/binfmt.rs",
    "crates/memtrace/src/wire.rs",
    "crates/serve/src/proto.rs",
    "crates/online/src/durability/codec.rs",
    "crates/online/src/durability/journal.rs",
];

const ALLOCATORS: [&str; 3] = ["with_capacity(", "reserve(", "reserve_exact("];

fn is_encoder(fn_name: &str) -> bool {
    ["write_", "encode", "put_"].iter().any(|p| fn_name.starts_with(p)) || fn_name == "append"
}

/// The name a `let` line binds, when its value comes from `Reader::count`.
fn counted_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("let ")?;
    if !rest.contains(".count(\"") {
        return None;
    }
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}

fn fn_name(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let line = ["pub(crate) ", "pub "].iter().find_map(|p| line.strip_prefix(p)).unwrap_or(line);
    let rest = line.strip_prefix("fn ")?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'))?;
    Some(&rest[..end])
}

/// The text between the parenthesis that ends `call` and its match.
fn argument(line: &str, call: usize) -> &str {
    let mut depth = 1;
    for (i, c) in line[call..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return line[call..call + i].trim();
                }
            }
            _ => {}
        }
    }
    line[call..].trim()
}

/// `(allocation sites checked, violations)` of one source file.
fn check(path: &str, src: &str) -> (usize, Vec<String>) {
    let src = src.split("\n#[cfg(test)]").next().expect("split yields a first part");
    let counted: Vec<&str> = src.lines().filter_map(counted_name).collect();
    let (mut current_fn, mut checked, mut violations) = ("", 0, Vec::new());
    for (no, line) in src.lines().enumerate() {
        if let Some(name) = fn_name(line) {
            current_fn = name;
        }
        if is_encoder(current_fn) || line.trim_start().starts_with("//") {
            continue;
        }
        for alloc in ALLOCATORS {
            let mut from = 0;
            while let Some(at) = line[from..].find(alloc) {
                let call = from + at + alloc.len();
                from = call;
                checked += 1;
                let arg = argument(line, call);
                let is_path = !arg.is_empty()
                    && arg.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '.');
                let last = arg.rsplit('.').next().unwrap_or(arg);
                if !is_path || !counted.contains(&last) {
                    violations.push(format!(
                        "{path}:{}: `{alloc}{arg})` in `{current_fn}` is not sized by Reader::count",
                        no + 1
                    ));
                }
            }
        }
    }
    (checked, violations)
}

#[test]
fn decoders_allocate_only_from_counted_lengths() {
    let root = env!("CARGO_MANIFEST_DIR");
    let (mut checked, mut violations) = (0, Vec::new());
    for path in DECODERS {
        let src = std::fs::read_to_string(format!("{root}/{path}"))
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        let (c, v) = check(path, &src);
        checked += c;
        violations.extend(v);
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    // binfmt sizes five buffers from decoded lengths, proto and the codec
    // one each: a scan that finds fewer has lost track of the files.
    assert!(checked >= 7, "only {checked} allocation sites found");
}

#[test]
fn the_check_catches_a_length_decoded_any_other_way() {
    let bad = "fn decode(r: &mut Reader) {\n    let n = r.varint()? as usize;\n    \
               let v = Vec::with_capacity(n);\n}\n";
    assert_eq!(check("bad.rs", bad).1.len(), 1);
    let sum = "fn decode(r: &mut Reader) {\n    let n = r.count(\"items\", 1, 9)?;\n    \
               v.reserve(n + 1);\n}\n";
    assert_eq!(check("sum.rs", sum).1.len(), 1, "arithmetic on a count is not a count");
    let good = "fn decode(r: &mut Reader) {\n    let n = r.count(\"items\", 1, 9)?;\n    \
                let v = Vec::with_capacity(n);\n}\n";
    assert_eq!(check("good.rs", good), (1, Vec::new()));
    let encoder = "fn encode(v: &[u8]) {\n    let out = Vec::with_capacity(v.len() * 2);\n}\n";
    assert_eq!(check("encoder.rs", encoder), (0, Vec::new()));
}
