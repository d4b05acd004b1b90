//! Bit-for-bit checks of scoring responses against in-process reference
//! scores computed with `ServedModel::score_rows` on the same model file.

/// True when a binary (`application/x-uadb-scores`, f64) response body is
/// exactly the concatenation of `expected` streams as little-endian f64.
pub fn binary_matches(body: &[u8], expected: &[&[f64]]) -> bool {
    let want: usize = expected.iter().map(|s| s.len() * 8).sum();
    if body.len() != want {
        return false;
    }
    let got = body.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    got.zip(expected.iter().flat_map(|s| s.iter())).all(|(g, w)| g == w.to_bits())
}

/// True when a JSON response body holds, under each key, a number array
/// whose parsed values have exactly the expected bits.
pub fn json_matches(body: &[u8], expected: &[(&str, &[f64])]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else { return false };
    expected.iter().all(|(key, want)| match number_array(text, key) {
        Some(got) => {
            got.len() == want.len()
                && got.iter().zip(want.iter()).all(|(g, w)| g.to_bits() == w.to_bits())
        }
        None => false,
    })
}

/// The number array under `"key":` in a flat JSON object, parsed with the
/// standard library (correctly rounded, independent of the server's codec).
fn number_array(text: &str, key: &str) -> Option<Vec<f64>> {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern)? + pattern.len();
    let rest = text[start..].trim_start().strip_prefix('[')?;
    let inner = &rest[..rest.find(']')?];
    if inner.trim().is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCORES: [f64; 3] = [0.125, 0.3333333333333333, 1.0000000000000002];

    fn binary(scores: &[f64]) -> Vec<u8> {
        scores.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn binary_check_fails_on_one_flipped_bit() {
        let mut body = binary(&SCORES);
        assert!(binary_matches(&body, &[&SCORES]));
        for byte in [0, 9, 23] {
            body[byte] ^= 1;
            assert!(!binary_matches(&body, &[&SCORES]), "flip in byte {byte} went unnoticed");
            body[byte] ^= 1;
        }
        assert!(!binary_matches(&body[..16], &[&SCORES]), "a short body must fail");
        let both = [binary(&SCORES), binary(&SCORES[..2])].concat();
        assert!(binary_matches(&both, &[&SCORES, &SCORES[..2]]));
        assert!(!binary_matches(&both, &[&SCORES[..2], &SCORES]));
    }

    #[test]
    fn json_check_fails_on_one_flipped_bit() {
        let doc = |v: &[f64]| {
            let nums: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            format!("{{\"n\":{},\"scores\":[{}]}}", v.len(), nums.join(","))
        };
        assert!(json_matches(doc(&SCORES).as_bytes(), &[("scores", &SCORES)]));
        let mut flipped = SCORES;
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        assert!(!json_matches(doc(&flipped).as_bytes(), &[("scores", &SCORES)]));
        assert!(!json_matches(doc(&SCORES[..2]).as_bytes(), &[("scores", &SCORES)]));
        assert!(!json_matches(b"{\"error\":\"x\"}", &[("scores", &SCORES)]));

        let pair = format!(
            "{{\"booster\":[0.5, 0.25],\"teacher\":[{:?}],\"n\":2,\"variant\":\"both\"}}",
            SCORES[1]
        );
        assert!(json_matches(
            pair.as_bytes(),
            &[("booster", &[0.5, 0.25]), ("teacher", &SCORES[1..2])]
        ));
        assert!(!json_matches(
            pair.as_bytes(),
            &[("booster", &[0.5, 0.25]), ("teacher", &SCORES[..1])]
        ));
    }
}
