// Quickstart: match the paper's running example — the relational
// purchase-order schema PO1 against the XML schema PO2 of Figure 1 —
// with the default match operation, and print the similarity-cube
// extract of Table 1 along the way.
//
// The top-level README.md walks through this example and the rest of
// the public API (Engine, the batched Engine.MatchAll, the repository
// — one file or a directory of shards — the comaserve network server
// with its coma.Client, and the cmd tools); examples/server runs the
// same match through a served repository over HTTP.
package main

import (
	"fmt"
	"log"

	coma "repro"
)

const po1DDL = `
CREATE TABLE PO1.ShipTo (
  poNo INT,
  custNo INT REFERENCES PO1.Customer,
  shipToStreet VARCHAR(200),
  shipToCity VARCHAR(200),
  shipToZip VARCHAR(20),
  PRIMARY KEY (poNo)
);
CREATE TABLE PO1.Customer (
  custNo INT,
  custName VARCHAR(200),
  custStreet VARCHAR(200),
  custCity VARCHAR(200),
  custZip VARCHAR(20),
  PRIMARY KEY (custNo)
);`

const po2XSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
 <xsd:complexType name="PO2">
  <xsd:sequence>
   <xsd:element name="DeliverTo" type="Address"/>
   <xsd:element name="BillTo" type="Address"/>
  </xsd:sequence>
 </xsd:complexType>
 <xsd:complexType name="Address">
  <xsd:sequence>
   <xsd:element name="Street" type="xsd:string"/>
   <xsd:element name="City" type="xsd:string"/>
   <xsd:element name="Zip" type="xsd:decimal"/>
  </xsd:sequence>
 </xsd:complexType>
</xsd:schema>`

func main() {
	s1, err := coma.LoadSQL("PO1", po1DDL)
	if err != nil {
		log.Fatal(err)
	}
	s2, err := coma.LoadXSD("PO2", []byte(po2XSD))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("PO1 (relational):")
	fmt.Print(s1)
	fmt.Println("\nPO2 (XML, shared Address fragment):")
	fmt.Print(s2)

	// Default match operation: all five hybrid matchers combined with
	// (Average, Both, Threshold(0.5)+Delta(0.02)).
	res, err := coma.Match(s1, s2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmatch result (%d correspondences, schema similarity %.2f):\n",
		res.Mapping.Len(), res.SchemaSim)
	for _, c := range res.Mapping.Correspondences() {
		fmt.Printf("  %-25s <-> %-28s %.2f\n", c.From, c.To, c.Sim)
	}

	// Peek into the similarity cube (Table 1): the intermediate result
	// of each matcher before combination.
	fmt.Println("\nsimilarity cube extract (Table 1):")
	for _, matcher := range res.Cube.Matchers() {
		layer := res.Cube.Layer(matcher)
		sim := layer.GetKey("ShipTo.shipToCity", "DeliverTo.Address.City")
		fmt.Printf("  %-10s ShipTo.shipToCity <-> DeliverTo.Address.City  %.2f\n", matcher, sim)
	}
}
