//! Minimal SARIF 2.1.0 emitter (hand-written JSON, dependency-free).
//!
//! Emits one run with one result per finding, enough for GitHub code
//! scanning upload and for archiving the analysis output as a CI
//! artifact.

use crate::rules::Finding;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `findings` as a SARIF 2.1.0 document.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    let rule_objs: Vec<String> = rules
        .iter()
        .map(|r| {
            format!(
                r#"{{"id":"{}","defaultConfiguration":{{"level":"error"}}}}"#,
                esc(r)
            )
        })
        .collect();
    let results: Vec<String> = findings
        .iter()
        .map(|f| {
            let idx = rules.iter().position(|r| *r == f.rule).unwrap_or(0);
            format!(
                concat!(
                    r#"{{"ruleId":"{rule}","ruleIndex":{idx},"level":"error","#,
                    r#""message":{{"text":"{msg}"}},"#,
                    r#""locations":[{{"physicalLocation":{{"#,
                    r#""artifactLocation":{{"uri":"{file}","uriBaseId":"SRCROOT"}},"#,
                    r#""region":{{"startLine":{line},"startColumn":{col}}}}}}}]}}"#
                ),
                rule = esc(f.rule),
                idx = idx,
                msg = esc(&f.msg),
                file = esc(&f.file),
                line = f.line.max(1),
                col = f.col.max(1),
            )
        })
        .collect();
    format!(
        concat!(
            r#"{{"version":"2.1.0","#,
            r#""$schema":"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json","#,
            r#""runs":[{{"tool":{{"driver":{{"name":"pmlint","informationUri":"https://example.invalid/pmlint","#,
            r#""version":"3.0.0","rules":[{rules}]}}}},"#,
            r#""originalUriBaseIds":{{"SRCROOT":{{"uri":"file:///"}}}},"#,
            r#""results":[{results}]}}]}}"#
        ),
        rules = rule_objs.join(","),
        results = results.join(","),
    )
}

/// Render `findings` as GitHub Actions annotation commands
/// (`::error file=…,line=…,col=…::message`).
pub fn to_github_annotations(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|f| {
            // Annotation messages must be single-line; `%0A` is the
            // workflow-command newline escape.
            let msg = f.msg.replace('%', "%25").replace('\n', "%0A");
            format!(
                "::error file={},line={},col={}::[{}] {}",
                f.file, f.line, f.col, f.rule, msg
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "persist-order",
            file: "crates/storage/src/nv/table.rs".to_owned(),
            line: 703,
            col: 9,
            msg: "store \"x\" reaches publish".to_owned(),
        }]
    }

    #[test]
    fn sarif_is_valid_enough() {
        let s = to_sarif(&sample());
        assert!(s.contains(r#""version":"2.1.0""#));
        assert!(s.contains(r#""ruleId":"persist-order""#));
        assert!(s.contains(r#""startLine":703"#));
        assert!(s.contains("\\\"x\\\""), "quotes escaped: {s}");
        // Balanced braces — a cheap structural check.
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn concurrency_rules_round_trip() {
        // The rule table is derived from the findings, so the
        // concurrency rules must show up with their own rule objects.
        let f = vec![Finding {
            rule: crate::RULE_ATOMIC_ORDERING,
            file: "crates/core/src/backend_nv.rs".to_owned(),
            line: 365,
            col: 9,
            msg: "publish `seq` uses atomic `store` with ordering Relaxed".to_owned(),
        }];
        let s = to_sarif(&f);
        assert!(s.contains(r#""id":"atomic-ordering""#));
        assert!(s.contains(r#""ruleId":"atomic-ordering""#));
        let a = to_github_annotations(&f);
        assert!(a.contains("[atomic-ordering]"));
    }

    #[test]
    fn empty_findings_still_produce_a_run() {
        let s = to_sarif(&[]);
        assert!(s.contains(r#""results":[]"#));
    }

    #[test]
    fn github_annotations_format() {
        let a = to_github_annotations(&sample());
        assert!(a.starts_with("::error file=crates/storage/src/nv/table.rs,line=703"));
        assert!(a.contains("[persist-order]"));
    }
}
