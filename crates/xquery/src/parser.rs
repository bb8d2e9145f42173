//! Recursive-descent parser for the FLWR subset.
//!
//! A nested FLWR recurses through its enclosing RETURN constructor, so
//! nesting is bounded by [`MAX_NESTING`]: a deeper query is a typed
//! [`QueryError::TooDeep`] error, not a stack overflow.

use crate::ast::*;
use crate::error::{QueryError, Result};
use crate::lexer::{tokenize, Keyword, Spanned, Token};

/// The deepest FLWR nesting a query may have (the outer FLWR is depth
/// 1). The translator takes one nested FLWR; the limit only keeps the
/// parser's recursion bounded.
pub const MAX_NESTING: usize = 32;

/// Parse a complete query (one FLWR expression).
pub fn parse_query(input: &str) -> Result<Flwr> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let flwr = p.parse_flwr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after the query"));
    }
    Ok(flwr)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// FLWR expressions open at `pos`.
    depth: usize,
}

/// Canonical (lowercase) spelling of a keyword used as a name.
fn keyword_word(k: Keyword) -> &'static str {
    match k {
        Keyword::For => "for",
        Keyword::Let => "let",
        Keyword::Where => "where",
        Keyword::Return => "return",
        Keyword::In => "in",
        Keyword::And => "and",
        Keyword::Order => "order",
        Keyword::By => "by",
        Keyword::Ascending => "ascending",
        Keyword::Descending => "descending",
    }
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token, what: &str) -> Result<()> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn err(&self, message: &str) -> QueryError {
        let offset = self
            .tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or_else(|| self.tokens.last().map(|s| s.offset + 1).unwrap_or(0));
        QueryError::Parse {
            offset,
            message: message.to_owned(),
        }
    }

    fn expect_keyword(&mut self, k: Keyword, what: &str) -> Result<()> {
        self.expect(Token::Keyword(k), what)
    }

    fn expect_var(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(v),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a variable ($name)"))
            }
        }
    }

    /// Names in paths and tags; keywords are contextual, so `//order`
    /// or `<count>` are ordinary names here (normalized to lowercase —
    /// the lexer does not preserve a keyword's original spelling).
    fn expect_name(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Name(n)) => Ok(n),
            Some(Token::Keyword(k)) => Ok(keyword_word(k).to_owned()),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a name"))
            }
        }
    }

    fn parse_flwr(&mut self) -> Result<Flwr> {
        if self.depth == MAX_NESTING {
            let offset = self.tokens.get(self.pos).map_or(0, |s| s.offset);
            return Err(QueryError::TooDeep { offset });
        }
        self.depth += 1;
        let flwr = self.parse_flwr_clauses();
        self.depth -= 1;
        flwr
    }

    fn parse_flwr_clauses(&mut self) -> Result<Flwr> {
        self.expect_keyword(Keyword::For, "FOR")?;
        let var = self.expect_var()?;
        self.expect_keyword(Keyword::In, "IN")?;
        let (distinct, source) = self.parse_for_source()?;

        // `CUBE` is contextual (an ordinary Name token), recognized only
        // when immediately followed by `BY`.
        let cube_by =
            if matches!(self.peek(), Some(Token::Name(n)) if n.eq_ignore_ascii_case("cube")) {
                self.bump();
                self.expect_keyword(Keyword::By, "BY after CUBE")?;
                let mut cvar = None;
                let mut dims = Vec::new();
                loop {
                    let v = self.expect_var()?;
                    match &cvar {
                        None => cvar = Some(v),
                        Some(first) if *first == v => {}
                        Some(first) => {
                            return Err(self
                                .err(&format!("CUBE BY dimensions must all start from ${first}")))
                        }
                    }
                    let mut path = Vec::new();
                    while self.eat(&Token::Slash) {
                        path.push(self.expect_name()?);
                    }
                    if path.is_empty() {
                        return Err(self.err("expected a path after the CUBE BY variable"));
                    }
                    dims.push(path);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                let Some(var) = cvar else {
                    return Err(self.err("expected a CUBE BY dimension"));
                };
                Some(CubeClause { var, dims })
            } else {
                None
            };

        let let_clause = if self.eat(&Token::Keyword(Keyword::Let)) {
            let lvar = self.expect_var()?;
            self.expect(Token::Assign, "':=' after LET variable")?;
            let lsource = self.parse_path()?;
            Some(LetClause {
                var: lvar,
                source: lsource,
            })
        } else {
            None
        };

        let mut where_clause = Vec::new();
        if self.eat(&Token::Keyword(Keyword::Where)) {
            loop {
                where_clause.push(self.parse_comparison()?);
                if !self.eat(&Token::Keyword(Keyword::And)) {
                    break;
                }
            }
        }

        let order_by = if self.eat(&Token::Keyword(Keyword::Order)) {
            self.expect_keyword(Keyword::By, "BY after ORDER")?;
            let ovar = self.expect_var()?;
            let mut path = Vec::new();
            while self.eat(&Token::Slash) {
                path.push(self.expect_name()?);
            }
            let descending = if self.eat(&Token::Keyword(Keyword::Descending)) {
                true
            } else {
                self.eat(&Token::Keyword(Keyword::Ascending));
                false
            };
            Some(OrderBy {
                var: ovar,
                path,
                descending,
            })
        } else {
            None
        };

        self.expect_keyword(Keyword::Return, "RETURN")?;
        let return_clause = self.parse_return_expr()?;
        Ok(Flwr {
            for_clause: ForClause {
                var,
                distinct,
                source,
            },
            cube_by,
            let_clause,
            where_clause,
            order_by,
            return_clause,
        })
    }

    fn parse_for_source(&mut self) -> Result<(bool, PathExpr)> {
        if self.peek() == Some(&Token::Name("distinct-values".into())) {
            self.bump();
            self.expect(Token::LParen, "'(' after distinct-values")?;
            let p = self.parse_path()?;
            self.expect(Token::RParen, "')' closing distinct-values")?;
            Ok((true, p))
        } else {
            Ok((false, self.parse_path()?))
        }
    }

    fn parse_path(&mut self) -> Result<PathExpr> {
        let root = match self.peek().cloned() {
            Some(Token::Name(n)) if n == "document" => {
                self.bump();
                self.expect(Token::LParen, "'(' after document")?;
                let file = match self.bump() {
                    Some(Token::Str(s)) => s,
                    _ => return Err(self.err("expected a string inside document(...)")),
                };
                self.expect(Token::RParen, "')' closing document(...)")?;
                PathRoot::Document(file)
            }
            Some(Token::Var(_)) => {
                let v = self.expect_var()?;
                PathRoot::Var(v)
            }
            _ => return Err(self.err("expected document(\"…\") or a variable")),
        };
        let mut steps = Vec::new();
        loop {
            let axis = if self.eat(&Token::DoubleSlash) {
                StepAxis::Descendant
            } else if self.eat(&Token::Slash) {
                StepAxis::Child
            } else {
                break;
            };
            let name = self.expect_name()?;
            let predicate = if self.eat(&Token::LBracket) {
                let pred = self.parse_step_predicate()?;
                self.expect(Token::RBracket, "']' closing predicate")?;
                Some(pred)
            } else {
                None
            };
            steps.push(Step {
                axis,
                name,
                predicate,
            });
        }
        Ok(PathExpr { root, steps })
    }

    fn parse_step_predicate(&mut self) -> Result<StepPredicate> {
        let mut path = vec![self.expect_name()?];
        while self.eat(&Token::Slash) {
            path.push(self.expect_name()?);
        }
        self.expect(Token::Eq, "'=' in predicate")?;
        let rhs = self.parse_operand()?;
        Ok(StepPredicate { path, rhs })
    }

    fn parse_operand(&mut self) -> Result<Operand> {
        match self.bump() {
            Some(Token::Var(v)) => {
                if self.peek() == Some(&Token::Slash) {
                    let mut path = Vec::new();
                    while self.eat(&Token::Slash) {
                        path.push(self.expect_name()?);
                    }
                    Ok(Operand::VarPath(v, path))
                } else {
                    Ok(Operand::Var(v))
                }
            }
            Some(Token::Str(s)) => Ok(Operand::Literal(s)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected a variable, a variable path, or a string"))
            }
        }
    }

    fn parse_comparison(&mut self) -> Result<Comparison> {
        let left = self.parse_operand()?;
        self.expect(Token::Eq, "'=' in comparison")?;
        let right = self.parse_operand()?;
        Ok(Comparison { left, right })
    }

    fn parse_return_expr(&mut self) -> Result<ReturnExpr> {
        match self.peek() {
            Some(Token::Lt) => {
                let c = self.parse_constructor()?;
                Ok(ReturnExpr::Element(c))
            }
            Some(Token::Var(_)) => {
                let v = self.expect_var()?;
                if self.peek() == Some(&Token::Slash) {
                    let mut path = Vec::new();
                    while self.eat(&Token::Slash) {
                        path.push(self.expect_name()?);
                    }
                    Ok(ReturnExpr::Path(v, path))
                } else {
                    Ok(ReturnExpr::Var(v))
                }
            }
            _ => Err(self.err("expected an element constructor or a path after RETURN")),
        }
    }

    fn parse_constructor(&mut self) -> Result<Constructor> {
        self.expect(Token::Lt, "'<'")?;
        let tag = self.expect_name()?;
        self.expect(Token::Gt, "'>' closing the open tag")?;
        let mut items = Vec::new();
        loop {
            if self.eat(&Token::LBrace) {
                items.push(self.parse_return_item()?);
                self.expect(Token::RBrace, "'}' closing the embedded expression")?;
            } else if self.eat(&Token::LtSlash) {
                let close = self.expect_name()?;
                if close != tag {
                    return Err(self.err(&format!("close tag </{close}> does not match <{tag}>")));
                }
                self.expect(Token::Gt, "'>' closing the close tag")?;
                return Ok(Constructor { tag, items });
            } else {
                return Err(self.err("expected '{', or the closing tag"));
            }
        }
    }

    fn parse_return_item(&mut self) -> Result<ReturnItem> {
        let agg = match self.peek() {
            Some(Token::Name(n)) => AggName::parse(n),
            _ => None,
        };
        if let Some(func) = agg {
            self.bump();
            self.expect(Token::LParen, "'(' after the aggregate function")?;
            let v = self.expect_var()?;
            let mut path = Vec::new();
            while self.eat(&Token::Slash) {
                path.push(self.expect_name()?);
            }
            self.expect(Token::RParen, "')' closing the aggregate call")?;
            return Ok(ReturnItem::Agg(func, v, path));
        }
        match self.peek().cloned() {
            Some(Token::Keyword(Keyword::For)) => {
                let nested = self.parse_flwr()?;
                Ok(ReturnItem::Nested(Box::new(nested)))
            }
            Some(Token::Var(_)) => {
                let v = self.expect_var()?;
                if self.peek() == Some(&Token::Slash) {
                    let mut path = Vec::new();
                    while self.eat(&Token::Slash) {
                        path.push(self.expect_name()?);
                    }
                    Ok(ReturnItem::VarPath(v, path))
                } else {
                    Ok(ReturnItem::Var(v))
                }
            }
            _ => Err(self.err("expected $var, an aggregate like count($var), or a nested FOR")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Query 1 of the paper.
    pub const QUERY1: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>
          {$a}
          { FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author
            RETURN $b/title }
        </authorpubs>
    "#;

    /// Query 2 (the unnested LET formulation).
    pub const QUERY2: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs>
          {$a} {$t}
        </authorpubs>
    "#;

    /// The count variant of Sec. 6.
    pub const QUERY_COUNT: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs>
          {$a} {count($t)}
        </authorpubs>
    "#;

    #[test]
    fn parses_query1() {
        let q = parse_query(QUERY1).unwrap();
        assert_eq!(q.for_clause.var, "a");
        assert!(q.for_clause.distinct);
        assert_eq!(
            q.for_clause.source.root,
            PathRoot::Document("bib.xml".into())
        );
        assert_eq!(q.for_clause.source.steps.len(), 1);
        assert_eq!(q.for_clause.source.steps[0].name, "author");
        assert_eq!(q.for_clause.source.steps[0].axis, StepAxis::Descendant);
        assert_eq!(q.return_tag(), Some("authorpubs"));
        let ReturnExpr::Element(c) = &q.return_clause else {
            panic!()
        };
        assert_eq!(c.items.len(), 2);
        assert_eq!(c.items[0], ReturnItem::Var("a".into()));
        let ReturnItem::Nested(nested) = &c.items[1] else {
            panic!("second item must be the nested FLWR")
        };
        assert_eq!(nested.for_clause.var, "b");
        assert!(!nested.for_clause.distinct);
        assert_eq!(nested.where_clause.len(), 1);
        assert_eq!(
            nested.where_clause[0],
            Comparison {
                left: Operand::Var("a".into()),
                right: Operand::VarPath("b".into(), vec!["author".into()]),
            }
        );
        assert_eq!(
            nested.return_clause,
            ReturnExpr::Path("b".into(), vec!["title".into()])
        );
    }

    #[test]
    fn parses_query2_let() {
        let q = parse_query(QUERY2).unwrap();
        let let_clause = q.let_clause.as_ref().unwrap();
        assert_eq!(let_clause.var, "t");
        let steps = &let_clause.source.steps;
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].name, "article");
        let pred = steps[0].predicate.as_ref().unwrap();
        assert_eq!(pred.path, vec!["author".to_owned()]);
        assert_eq!(pred.rhs, Operand::Var("a".into()));
        assert_eq!(steps[1].name, "title");
        assert_eq!(steps[1].axis, StepAxis::Child);
    }

    #[test]
    fn parses_count() {
        let q = parse_query(QUERY_COUNT).unwrap();
        let ReturnExpr::Element(c) = &q.return_clause else {
            panic!()
        };
        assert_eq!(
            c.items[1],
            ReturnItem::Agg(AggName::Count, "t".into(), vec![])
        );
    }

    #[test]
    fn parses_institution_query() {
        let q = parse_query(
            r#"
            FOR $i IN distinct-values(document("bib.xml")//institution)
            RETURN <instpubs>
              {$i}
              { FOR $b IN document("bib.xml")//article
                WHERE $i = $b/author/institution
                RETURN $b/title }
            </instpubs>
        "#,
        )
        .unwrap();
        let ReturnExpr::Element(c) = &q.return_clause else {
            panic!()
        };
        let ReturnItem::Nested(nested) = &c.items[1] else {
            panic!()
        };
        assert_eq!(
            nested.where_clause[0].right,
            Operand::VarPath("b".into(), vec!["author".into(), "institution".into()])
        );
    }

    #[test]
    fn multi_step_predicate_path() {
        let q = parse_query(r#"FOR $a IN document("b.xml")//x[c/d = "v"]/y RETURN $a"#).unwrap();
        let step = &q.for_clause.source.steps[0];
        let pred = step.predicate.as_ref().unwrap();
        assert_eq!(pred.path, vec!["c".to_owned(), "d".to_owned()]);
        assert_eq!(pred.rhs, Operand::Literal("v".into()));
    }

    #[test]
    fn where_with_and() {
        let q =
            parse_query(r#"FOR $a IN document("b.xml")//x WHERE $a = "1" AND $a = "2" RETURN $a"#)
                .unwrap();
        assert_eq!(q.where_clause.len(), 2);
    }

    #[test]
    fn mismatched_constructor_tags_rejected() {
        let err = parse_query(r#"FOR $a IN document("b.xml")//x RETURN <a>{$a}</b>"#).unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_query(r#"FOR $a IN document("b.xml")//x RETURN $a extra"#).is_err());
    }

    #[test]
    fn missing_return_rejected() {
        assert!(parse_query(r#"FOR $a IN document("b.xml")//x"#).is_err());
    }

    #[test]
    fn keywords_lowercase_accepted() {
        assert!(parse_query(r#"for $a in document("b.xml")//x return $a"#).is_ok());
    }

    /// `depth` FLWR expressions, each nested in its parent's RETURN.
    fn nested_flwr(depth: usize) -> String {
        let flwr = r#"FOR $a IN document("b.xml")//x RETURN "#;
        let open = format!("{flwr}<r> {{ ");
        format!(
            "{}{flwr}$a{}",
            open.repeat(depth - 1),
            " } </r>".repeat(depth - 1)
        )
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let mut q = &parse_query(&nested_flwr(MAX_NESTING)).unwrap();
        for _ in 1..MAX_NESTING {
            let ReturnExpr::Element(c) = &q.return_clause else {
                panic!("every level but the last returns a constructor")
            };
            let ReturnItem::Nested(inner) = &c.items[0] else {
                panic!("the constructor holds the nested FLWR")
            };
            q = inner;
        }
        assert_eq!(q.return_clause, ReturnExpr::Var("a".into()));
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let text = nested_flwr(MAX_NESTING + 1);
        let err = parse_query(&text).unwrap_err();
        let QueryError::TooDeep { offset } = err else {
            panic!("{err}")
        };
        // The offending FOR is the last one in the text.
        assert_eq!(offset, text.rfind("FOR").unwrap());
    }

    #[test]
    fn parses_cube_by_dimension_list() {
        let q = parse_query(
            r#"FOR $b IN document("bib.xml")//article
               CUBE BY $b/journal, $b/year, $b/author/name
               RETURN <pubs> {count($b/title)} </pubs>"#,
        )
        .unwrap();
        let cube = q.cube_by.as_ref().unwrap();
        assert_eq!(cube.var, "b");
        assert_eq!(
            cube.dims,
            vec![
                vec!["journal".to_owned()],
                vec!["year".to_owned()],
                vec!["author".to_owned(), "name".to_owned()],
            ]
        );
        let ReturnExpr::Element(c) = &q.return_clause else {
            panic!()
        };
        assert_eq!(
            c.items[0],
            ReturnItem::Agg(AggName::Count, "b".into(), vec!["title".into()])
        );
    }

    #[test]
    fn cube_is_contextual_not_a_keyword() {
        // An element named "cube" still parses as a path step.
        let q = parse_query(r#"FOR $a IN document("b.xml")//cube RETURN $a"#).unwrap();
        assert_eq!(q.for_clause.source.steps[0].name, "cube");
        assert!(q.cube_by.is_none());
    }

    #[test]
    fn cube_by_rejects_foreign_variables_and_empty_paths() {
        let err = parse_query(
            r#"FOR $b IN document("bib.xml")//article
               CUBE BY $b/journal, $x/year
               RETURN <pubs> {count($b/title)} </pubs>"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("start from $b"), "{err}");
        let err = parse_query(
            r#"FOR $b IN document("bib.xml")//article
               CUBE BY $b
               RETURN <pubs> {count($b/title)} </pubs>"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("path"), "{err}");
    }
}
