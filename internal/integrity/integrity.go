// Package integrity validates RDF Data Cube well-formedness before
// relationship computation, implementing the subset of the W3C QB
// integrity constraints (IC-1 … IC-21) that the paper's pipeline depends
// on. Each constraint is expressed as a SPARQL query over the corpus
// graph and executed by the in-tree engine — malformed cubes surface as
// violation bindings rather than silently skewing the relationship sets.
package integrity

import (
	"fmt"

	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
)

// Violation is one integrity-constraint hit.
type Violation struct {
	// Constraint is the IC identifier (e.g. "IC-1").
	Constraint string
	// Message describes the violated requirement.
	Message string
	// Node is the offending resource.
	Node rdf.Term
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (%s)", v.Constraint, v.Message, v.Node)
}

// check is one constraint: a SELECT query whose solutions are violations;
// the node variable names the offending resource.
type check struct {
	id      string
	message string
	query   string
	nodeVar string
}

const prologue = `PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
`

// checks lists the implemented constraints. Wordings follow the QB
// recommendation's normative text.
var checks = []check{
	{
		id:      "IC-1",
		message: "every qb:Observation has exactly one qb:dataSet (none found)",
		query: prologue + `SELECT DISTINCT ?obs WHERE {
  ?obs a qb:Observation .
  FILTER NOT EXISTS { ?obs qb:dataSet ?ds }
}`,
		nodeVar: "obs",
	},
	{
		id:      "IC-1b",
		message: "every qb:Observation has exactly one qb:dataSet (several found)",
		query: prologue + `SELECT DISTINCT ?obs WHERE {
  ?obs a qb:Observation .
  ?obs qb:dataSet ?ds1 .
  ?obs qb:dataSet ?ds2 .
  FILTER(?ds1 != ?ds2)
}`,
		nodeVar: "obs",
	},
	{
		id:      "IC-2",
		message: "every qb:DataSet has exactly one qb:structure (none found)",
		query: prologue + `SELECT DISTINCT ?ds WHERE {
  ?ds a qb:DataSet .
  FILTER NOT EXISTS { ?ds qb:structure ?dsd }
}`,
		nodeVar: "ds",
	},
	{
		id:      "IC-2b",
		message: "every qb:DataSet has exactly one qb:structure (several found)",
		query: prologue + `SELECT DISTINCT ?ds WHERE {
  ?ds a qb:DataSet .
  ?ds qb:structure ?d1 .
  ?ds qb:structure ?d2 .
  FILTER(?d1 != ?d2)
}`,
		nodeVar: "ds",
	},
	{
		id:      "IC-3",
		message: "every qb:DataStructureDefinition includes a measure component",
		query: prologue + `SELECT DISTINCT ?dsd WHERE {
  ?dsd a qb:DataStructureDefinition .
  FILTER NOT EXISTS { ?dsd qb:component ?c . ?c qb:measure ?m }
}`,
		nodeVar: "dsd",
	},
	{
		id:      "IC-11",
		message: "every observation carries a value for each dimension of its dataset's structure",
		query: prologue + `SELECT DISTINCT ?obs WHERE {
  ?obs qb:dataSet ?ds .
  ?ds qb:structure ?dsd .
  ?dsd qb:component ?c .
  ?c qb:dimension ?dim .
  FILTER NOT EXISTS { ?obs ?dim ?v }
}`,
		nodeVar: "obs",
	},
	{
		id:      "IC-12",
		message: "no two observations of one dataset share values on every dimension",
		query: prologue + `SELECT DISTINCT ?obs WHERE {
  ?obs qb:dataSet ?ds .
  ?dup qb:dataSet ?ds .
  FILTER(?obs != ?dup)
  FILTER NOT EXISTS {
    ?ds qb:structure ?dsd .
    ?dsd qb:component ?c .
    ?c qb:dimension ?dim .
    ?obs ?dim ?v1 .
    ?dup ?dim ?v2 .
    FILTER(?v1 != ?v2)
  }
}`,
		nodeVar: "obs",
	},
	{
		id:      "IC-14",
		message: "every observation carries a value for each declared measure",
		query: prologue + `SELECT DISTINCT ?obs WHERE {
  ?obs qb:dataSet ?ds .
  ?ds qb:structure ?dsd .
  ?dsd qb:component ?c .
  ?c qb:measure ?m .
  FILTER NOT EXISTS { ?obs ?m ?v }
}`,
		nodeVar: "obs",
	},
	{
		id:      "IC-19",
		message: "every dimension value with a code list belongs to that code list's scheme",
		query: prologue + `SELECT DISTINCT ?obs WHERE {
  ?obs qb:dataSet ?ds .
  ?ds qb:structure ?dsd .
  ?dsd qb:component ?c .
  ?c qb:dimension ?dim .
  ?dim qb:codeList ?list .
  ?obs ?dim ?v .
  FILTER NOT EXISTS { ?v skos:inScheme ?list }
}`,
		nodeVar: "obs",
	},
}

// Check runs every implemented constraint against the graph and returns
// the violations found, in constraint order.
func Check(g *rdf.Graph) ([]Violation, error) {
	var out []Violation
	for _, c := range checks {
		res, err := sparql.Exec(g, c.query)
		if err != nil {
			return nil, fmt.Errorf("integrity: %s: %w", c.id, err)
		}
		for _, sol := range res.Solutions {
			out = append(out, Violation{Constraint: c.id, Message: c.message, Node: sol[c.nodeVar]})
		}
	}
	return out, nil
}
