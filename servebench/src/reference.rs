//! The independent reference evaluator every op is checked against.
//!
//! It evaluates a conjunctive select-join query straight over exported
//! rows (`StoredDatabase::export_rows`): filter each relation, then join
//! the relations in `FROM` order through a plain hash map on one
//! connecting equi-join predicate, checking any other connecting
//! predicates row by row. It shares no code with `dqep-executor` and
//! does not read the SQL text: workload generators build the SQL and
//! this description of it side by side.

use std::collections::HashMap;

/// `rels[rel].attrs[attr] < :var`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sel {
    pub rel: usize,
    pub attr: usize,
    pub var: String,
}

/// `rels[left.0].attrs[left.1] = rels[right.0].attrs[right.1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Join {
    pub left: (usize, usize),
    pub right: (usize, usize),
}

/// A query over `rels.len()` relations (positions in `FROM` order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefQuery {
    /// Relation names in `FROM` order.
    pub rels: Vec<String>,
    pub joins: Vec<Join>,
    pub sels: Vec<Sel>,
    /// `ORDER BY` column as `(relation position, attribute)`.
    pub order_by: Option<(usize, usize)>,
}

impl RefQuery {
    /// Column of `(rel, attr)` in a result row, given each relation's
    /// width: results concatenate relations in `FROM` order.
    #[must_use]
    pub fn column(&self, widths: &[usize], rel: usize, attr: usize) -> usize {
        widths[..rel].iter().sum::<usize>() + attr
    }

    /// Evaluates the query over `tables` (one row set per `FROM`
    /// position) under `binds`. Rows are relation rows concatenated in
    /// `FROM` order, sorted ascending on the `ORDER BY` column when there
    /// is one and lexicographically otherwise.
    ///
    /// # Panics
    /// Panics on a host variable missing from `binds` (a generator bug).
    #[must_use]
    pub fn evaluate(&self, tables: &[&[Vec<i64>]], binds: &[(String, i64)]) -> Vec<Vec<i64>> {
        let value = |name: &str| {
            binds
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("unbound host variable :{name}"))
        };
        let passes = |rel: usize, row: &[i64]| {
            self.sels
                .iter()
                .filter(|s| s.rel == rel)
                .all(|s| row[s.attr] < value(&s.var))
        };
        let filtered: Vec<Vec<&Vec<i64>>> = tables
            .iter()
            .enumerate()
            .map(|(rel, rows)| rows.iter().filter(|r| passes(rel, r)).collect())
            .collect();
        let widths: Vec<usize> = tables
            .iter()
            .map(|t| t.first().map_or(0, Vec::len))
            .collect();

        let mut partial: Vec<Vec<i64>> = filtered[0].iter().map(|r| (*r).clone()).collect();
        for (next, rows) in filtered.iter().enumerate().skip(1) {
            // Join predicates between `next` and the relations already
            // joined, as (partial-row column, attribute of `next`).
            let links: Vec<(usize, usize)> = self
                .joins
                .iter()
                .filter_map(|j| {
                    let (a, b) = if j.right.0 == next {
                        (j.left, j.right)
                    } else {
                        (j.right, j.left)
                    };
                    (b.0 == next && a.0 < next).then(|| (self.column(&widths, a.0, a.1), b.1))
                })
                .collect();
            let mut joined = Vec::new();
            match links.split_first() {
                Some((&(col, attr), rest)) => {
                    let mut by_key: HashMap<i64, Vec<&Vec<i64>>> = HashMap::new();
                    for row in rows {
                        by_key.entry(row[attr]).or_default().push(row);
                    }
                    for left in &partial {
                        for right in by_key.get(&left[col]).into_iter().flatten() {
                            if rest.iter().all(|&(c, a)| left[c] == right[a]) {
                                joined.push([left.as_slice(), right.as_slice()].concat());
                            }
                        }
                    }
                }
                None => {
                    for left in &partial {
                        for right in rows {
                            joined.push([left.as_slice(), right.as_slice()].concat());
                        }
                    }
                }
            }
            partial = joined;
        }
        partial.sort_unstable();
        if let Some((rel, attr)) = self.order_by {
            let col = self.column(&widths, rel, attr);
            partial.sort_by_key(|r| r[col]);
        }
        partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(rel: usize, attr: usize, name: &str) -> Sel {
        Sel {
            rel,
            attr,
            var: name.to_string(),
        }
    }

    /// r(a, j) ⋈ s(j, k, b) ⋈ t(k, c), hand-evaluated.
    #[test]
    fn three_relation_join_matches_hand_computation() {
        let r = vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![9, 30]];
        let s = vec![
            vec![10, 100, 5],
            vec![20, 200, 6],
            vec![20, 100, 7],
            vec![40, 100, 8],
        ];
        let t = vec![vec![100, 0], vec![100, 1], vec![200, 2], vec![300, 3]];
        let q = RefQuery {
            rels: vec!["r".into(), "s".into(), "t".into()],
            joins: vec![
                Join {
                    left: (0, 1),
                    right: (1, 0),
                },
                Join {
                    left: (1, 1),
                    right: (2, 0),
                },
            ],
            sels: vec![var(0, 0, "x"), var(2, 1, "y")],
            order_by: None,
        };
        let binds = [("x".to_string(), 4), ("y".to_string(), 3)];
        // r rows with a < 4: (1,10) (2,10) (3,20).
        // ⋈ s on j: (1,10)(2,10) → s(10,100,5); (3,20) → s(20,200,6), s(20,100,7).
        // ⋈ t on k with c < 3: k=100 → t(100,0), t(100,1); k=200 → t(200,2).
        let expected = vec![
            vec![1, 10, 10, 100, 5, 100, 0],
            vec![1, 10, 10, 100, 5, 100, 1],
            vec![2, 10, 10, 100, 5, 100, 0],
            vec![2, 10, 10, 100, 5, 100, 1],
            vec![3, 20, 20, 100, 7, 100, 0],
            vec![3, 20, 20, 100, 7, 100, 1],
            vec![3, 20, 20, 200, 6, 200, 2],
        ];
        assert_eq!(q.evaluate(&[&r, &s, &t], &binds), expected);

        // ORDER BY t.c sorts ascending on that column.
        let ordered = RefQuery {
            order_by: Some((2, 1)),
            ..q.clone()
        };
        let rows = ordered.evaluate(&[&r, &s, &t], &binds);
        assert_eq!(
            rows.iter().map(|r| r[6]).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1, 2]
        );

        // A residual join predicate (r.a = t.c) is checked row by row.
        let residual = RefQuery {
            joins: [
                q.joins.clone(),
                vec![Join {
                    left: (0, 0),
                    right: (2, 1),
                }],
            ]
            .concat(),
            ..q.clone()
        };
        assert_eq!(
            residual.evaluate(&[&r, &s, &t], &binds),
            vec![expected[1].clone()]
        );
    }

    #[test]
    fn unjoined_relations_form_a_cross_product() {
        let r = vec![vec![1], vec![2]];
        let s = vec![vec![7], vec![8], vec![9]];
        let q = RefQuery {
            rels: vec!["r".into(), "s".into()],
            ..RefQuery::default()
        };
        assert_eq!(q.evaluate(&[&r, &s], &[]).len(), 6);
    }
}
